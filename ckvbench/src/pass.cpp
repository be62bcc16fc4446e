#include "pass.hpp"

#include <sys/resource.h>

#include <algorithm>

#include "sim/hardware_model.hpp"
#include "sim/latency_model.hpp"
#include "util/parallel.hpp"

namespace ckvbench {

namespace {

/// FNV-1a over the raw bytes of every value fed in: two passes agree on
/// their fingerprint only if every virtual-clock result is byte-identical.
class Fingerprint {
 public:
  void add(double value) { add_bytes(&value, sizeof(value)); }
  void add(std::int64_t value) { add_bytes(&value, sizeof(value)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Generated-token progress of one session, observed between ticks.
struct TokenTrack {
  Index tokens = 0;
  double last_token_ms = 0.0;
};

/// Copies the decorator's counters into the pass's per-layer sums.
void snapshot_core(const CoreCounters& core, std::map<std::string, double>& layers) {
  const auto put_op = [&layers](const std::string& name, const OpCounter& op) {
    layers[name + ".calls"] = static_cast<double>(op.calls.load());
    layers[name + ".host_ms"] = op.ms();
  };
  put_op("core.factory", core.factory);
  put_op("core.prefill_chunk", core.prefill_chunk);
  put_op("core.select", core.select);
  put_op("core.observe_decode", core.observe_decode);
  put_op("core.observe_attention", core.observe_attention);
  put_op("core.release", core.release);
  put_op("core.cancel", core.cancel);
  layers["core.host_ms"] = core.host_ms();
  layers["core.release.tokens"] = static_cast<double>(core.release_tokens.load());
  layers["core.representations_scored"] =
      static_cast<double>(core.representations_scored.load());
  layers["kvcache.tokens_fetched"] = static_cast<double>(core.tokens_fetched.load());
  layers["kvcache.tokens_cache_hit"] = static_cast<double>(core.tokens_cache_hit.load());
  layers["kvcache.prefetch_hits"] = static_cast<double>(core.tokens_prefetch_hit.load());
  layers["kvcache.prefetch_issued"] =
      static_cast<double>(core.tokens_prefetch_issued.load());
}

}  // namespace

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

PassResult run_pass(const ServeSetup& setup, std::uint64_t seed, Recorder* recorder) {
  PassResult r;
  const std::string where = "trace seed " + std::to_string(seed) + ": ";
  const auto check = [&r, &where](bool condition, const std::string& what) {
    if (!condition) {
      r.failures.push_back(where + what);
    }
  };

  // Set-up: trace generation, scheduler construction, worker-pool warm-up.
  const Clock::time_point gen_begin = Clock::now();
  std::vector<ckv::ServeRequest> trace = ckv::make_poisson_trace(setup.trace, seed);
  const Clock::time_point gen_end = Clock::now();
  std::vector<double> arrivals;
  arrivals.reserve(trace.size());
  for (const ckv::ServeRequest& request : trace) {
    arrivals.push_back(request.arrival_ms);
  }
  check(std::is_sorted(arrivals.begin(), arrivals.end()),
        "make_poisson_trace returned arrivals out of order");
  r.offered = static_cast<Index>(trace.size());
  ckv::SelectorFactory factory = ckv::make_clusterkv_factory(setup.clusterkv, seed);
  if (recorder != nullptr) {
    factory = decorate_factory(std::move(factory), *recorder);
  }
  const ckv::LatencyModel latency(ckv::HardwareModel::ada6000(),
                                  ckv::ModelConfig::llama31_8b());
  ckv::BatchScheduler scheduler(std::move(trace), factory, setup.session, latency,
                                setup.scheduler);
  const Clock::time_point construct_end = Clock::now();
  ckv::parallel_for(0, ckv::parallel_worker_count(), [](Index) {});
  const Clock::time_point warm_end = Clock::now();
  r.trace_gen_ms = ms_between(gen_begin, gen_end);
  r.construct_ms = ms_between(gen_end, construct_end);
  r.warmup_ms = ms_between(construct_end, warm_end);
  if (recorder != nullptr) {
    recorder->add_span("workload.make_trace", gen_begin, gen_end, -1, -1, nullptr);
    recorder->add_span("serve.construct", gen_end, construct_end, -1, -1, nullptr);
  }

  const std::int64_t budget = setup.scheduler.fast_tier_budget_bytes;
  Fingerprint fp;
  std::map<Index, TokenTrack> tracks;
  std::size_t records_seen = 0;
  Index ticks = 0;
  double batch_sum = 0.0;
  double waiting_sum = 0.0;
  Index waiting_max = 0;
  double budget_util_sum = 0.0;
  bool more = true;
  while (more) {
    if (recorder != nullptr) {
      recorder->set_current_tick(ticks);
    }
    const Clock::time_point tick_begin = Clock::now();
    more = scheduler.tick();
    const Clock::time_point tick_end = Clock::now();
    const double wall = ms_between(tick_begin, tick_end);
    r.tick_ms.push_back(wall);
    r.tick_wall_ms += wall;
    if (recorder != nullptr) {
      recorder->add_span("serve.tick", tick_begin, tick_end, ticks, -1, nullptr);
    }
    ++ticks;

    // Everything below reads public accessors between ticks (untimed).
    const double now = scheduler.now_ms();
    const std::int64_t fast = scheduler.fast_tier_bytes();
    check(fast <= budget, "fast_tier_bytes " + std::to_string(fast) +
                              " exceeds the budget " + std::to_string(budget) +
                              " after tick " + std::to_string(ticks));
    budget_util_sum += static_cast<double>(fast) / static_cast<double>(budget);
    const Index running = scheduler.running_count();
    batch_sum += static_cast<double>(running);
    // Waiting = arrived by now but neither admitted nor shed. Admission and
    // shedding both pop the FIFO head, so the requests that left the queue
    // are exactly offered - queued_count(); queued_count() alone also
    // counts requests that have not arrived yet.
    const auto arrived = static_cast<Index>(
        std::upper_bound(arrivals.begin(), arrivals.end(), now) - arrivals.begin());
    const Index waiting = arrived - (r.offered - scheduler.queued_count());
    check(waiting >= 0, "more requests left the queue than had arrived");
    waiting_sum += static_cast<double>(waiting);
    waiting_max = std::max(waiting_max, waiting);
    fp.add(now);
    fp.add(fast);
    fp.add(running);
    fp.add(waiting);

    // Per-step inter-token gaps: a decoding session advances at most one
    // token per tick, so comparing token counts between ticks sees every
    // token's landing time.
    for (const std::unique_ptr<ckv::Session>& session : scheduler.running()) {
      const Index id = session->request().id;
      const Index tokens = session->tokens_generated();
      TokenTrack& track = tracks[id];
      if (tokens > track.tokens) {
        check(tokens == track.tokens + 1, "a session generated two tokens in one tick");
        if (track.tokens >= 1) {
          r.itl_ms.push_back(session->last_step_ms() - track.last_token_ms);
        }
        track.tokens = tokens;
        track.last_token_ms = session->last_step_ms();
      }
      if (recorder != nullptr) {
        // Name the session's selectors so their spans carry the request id.
        ckv::SelectorBank& bank = session->engine().selectors();
        for (Index layer = 0; layer < bank.num_layers(); ++layer) {
          for (Index head = 0; head < bank.num_heads(); ++head) {
            if (auto* timed = dynamic_cast<TimedSelector*>(&bank.at(layer, head))) {
              timed->tag()->request_id = id;
            }
          }
        }
      }
    }
    const std::vector<ckv::SessionRecord>& records = scheduler.metrics().records();
    for (; records_seen < records.size(); ++records_seen) {
      const ckv::SessionRecord& record = records[records_seen];
      const auto found = tracks.find(record.id);
      const TokenTrack track = found == tracks.end() ? TokenTrack{} : found->second;
      if (record.decode_len > track.tokens) {
        check(record.decode_len == track.tokens + 1,
              "a retiring session generated two tokens in one tick");
        if (track.tokens >= 1) {
          r.itl_ms.push_back(record.finish_ms - track.last_token_ms);
        }
      }
      if (found != tracks.end()) {
        tracks.erase(found);
      }
    }
  }

  const ckv::ServeMetrics& m = scheduler.metrics();
  check(scheduler.ticks() == ticks, "tick count disagrees with ticks()");
  r.finished = m.sessions();
  const Index shed = m.shed_sessions_total();
  check(r.finished + shed == r.offered,
        "finished + shed != offered (" + std::to_string(r.finished) + " + " +
            std::to_string(shed) + " vs " + std::to_string(r.offered) + ")");
  check(m.fault_fetch_faults_total() ==
            m.fault_retried_ok_total() + m.dead_fetches_total(),
        "fault_fetch_faults != retry_recovered + dead_fetches");
  check(m.dead_fetches_total() == m.degraded_steps_total(),
        "dead_fetches != degraded_steps");
  const auto& histograms = m.registry().histograms();
  const auto gaps = histograms.find("serve.inter_token_ms");
  check(gaps != histograms.end() &&
            gaps->second.count() == static_cast<Index>(r.itl_ms.size()),
        "inter-token gaps seen between ticks disagree with the scheduler's "
        "serve.inter_token_ms count");

  r.makespan_ms = m.makespan_ms();
  Index aborts = 0;
  for (const ckv::SessionRecord& record : m.records()) {
    r.ttft_ms.push_back(record.ttft_ms());
    r.prompt_tokens += static_cast<double>(record.prompt_len);
    r.generated_tokens += static_cast<double>(record.decode_len);
    r.recall_weighted += record.mean_recall * static_cast<double>(record.recall_steps);
    r.recall_steps += static_cast<double>(record.recall_steps);
    aborts += record.aborted ? 1 : 0;
    for (const double v : {record.arrival_ms, record.admit_ms, record.prefill_done_ms,
                           record.first_token_ms, record.finish_ms, record.mean_recall,
                           record.mean_coverage, record.cache_hit_rate,
                           record.fault_retry_ms}) {
      fp.add(v);
    }
    for (const std::int64_t v :
         {record.id, record.prompt_len, record.decode_len, record.recall_steps,
          record.preemptions, record.prefetch_hit_tokens, record.prefetch_issued_tokens,
          record.demand_fetched_tokens, record.prefetch_canceled_mispredict_tokens,
          record.prefetch_canceled_enforce_tokens, record.prefetch_canceled_release_tokens,
          record.degraded_steps, record.fault_retries, record.dead_fetches,
          static_cast<std::int64_t>(record.aborted)}) {
      fp.add(v);
    }
  }
  for (const double v : r.itl_ms) {
    fp.add(v);
  }
  for (const double v :
       {r.makespan_ms, m.throughput_tps(), m.mean_recall(), m.mean_coverage(),
        m.mean_cache_hit_rate(), m.prefetch_hit_rate(), m.prefetch_waste_rate(),
        m.repair_ms_total(), m.demand_stall_ms_total(), m.link_drained_bytes_total(),
        m.link_busy_ms_total(), m.fault_retry_ms_total(), m.inter_token_gap_p99_ms()}) {
    fp.add(v);
  }
  for (const std::int64_t v :
       {m.total_tokens(), m.total_preemptions(), m.recall_steps_total(),
        m.prefetch_issued_total(), m.prefetch_hits_total(), m.demand_stall_steps(),
        m.late_prefetch_tokens_total(), m.fault_fetch_faults_total(),
        m.fault_retried_ok_total(), m.dead_fetches_total(), m.degraded_steps_total(),
        m.wire_failures_total(), m.wire_retries_total(), m.fault_retries_total(),
        m.fault_aborts_total(), shed, m.max_queue_depth(), m.peak_occupancy_bytes()}) {
    fp.add(v);
  }
  r.signature = fp.value();

  auto& layers = r.layers;
  layers["serve.ticks"] = static_cast<double>(ticks);
  layers["serve.tick_host_ms"] = r.tick_wall_ms;
  layers["serve.batch_sum"] = batch_sum;
  layers["serve.waiting_sum"] = waiting_sum;
  layers["serve.waiting_max"] = static_cast<double>(waiting_max);
  layers["serve.budget_util_sum"] = budget_util_sum;
  layers["serve.preemptions"] = static_cast<double>(m.total_preemptions());
  layers["sim.makespan_ms"] = r.makespan_ms;
  layers["sim.demand_stall_ms"] = m.demand_stall_ms_total();
  layers["sim.link_busy_ms"] = m.link_busy_ms_total();
  layers["sim.late_prefetch_tokens"] = static_cast<double>(m.late_prefetch_tokens_total());
  layers["sim.fault_fetch_faults"] = static_cast<double>(m.fault_fetch_faults_total());
  layers["sim.retry_recovered"] = static_cast<double>(m.fault_retried_ok_total());
  layers["sim.dead_fetches"] = static_cast<double>(m.dead_fetches_total());
  layers["sim.degraded_steps"] = static_cast<double>(m.degraded_steps_total());
  layers["sim.wire_failures"] = static_cast<double>(m.wire_failures_total());
  layers["sim.shed"] = static_cast<double>(shed);
  layers["sim.aborts"] = static_cast<double>(aborts);
  layers["parallel.advance_wall_ms"] = m.advance_wall_ms_total();
  layers["parallel.fanout_sessions"] = static_cast<double>(m.fanout_sessions_total());
  layers["parallel.advanced_sessions"] = static_cast<double>(m.advanced_sessions_total());
  if (recorder != nullptr) {
    snapshot_core(recorder->core(), layers);
  }
  return r;
}

}  // namespace ckvbench
