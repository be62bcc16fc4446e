// ckv_bench — two-clock serving benchmark over the public ckv API.
//
//   ckv_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <sha>] [--trace-out <file.json>]
//
// A run draws its traces from --seed with make_poisson_trace (open-loop
// Poisson arrivals on the virtual clock), and each pass constructs a
// BatchScheduler over one trace and calls tick() until it drains. Every
// pass runs in a fresh child process. Two clocks are reported:
//   * host metrics (wall time the C++ spends): medians over passes;
//   * virtual metrics (what LatencyModel bills): deterministic per seed,
//     pooled over the run's traces.
// --trace 0 prints the end-to-end metrics; --trace 1 runs at one worker
// with a timing decorator on every selector and prints per-layer metrics.
// Every run checks the scheduler's invariants and exits 1 when one fails.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "child.hpp"
#include "model/procedural.hpp"
#include "pass.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

#ifndef CKVB_BUILD_TYPE
#define CKVB_BUILD_TYPE "unknown"
#endif
#ifndef CKVB_COMPILER
#define CKVB_COMPILER __VERSION__
#endif
#ifndef CKVB_NATIVE_ARCH
#define CKVB_NATIVE_ARCH 0
#endif

namespace ckvbench {
namespace {

// ---- statistics --------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// ---- run state ---------------------------------------------------------------

/// Correctness failures collected over a run (empty = every check held).
std::vector<std::string> g_failures;

void check(bool condition, const std::string& what) {
  if (!condition) {
    g_failures.push_back(what);
  }
}

/// Runs `body` in a child and keeps the failures it reports.
PassResult child_pass(const std::function<PassResult()>& body) {
  PassResult r = run_in_child(body);
  g_failures.insert(g_failures.end(), r.failures.begin(), r.failures.end());
  return r;
}

/// One untraced pass of trace `index` at `workers` workers.
PassResult plain_pass(const ServeSetup& setup, std::uint64_t seed, Index index,
                      int workers) {
  return child_pass([&] {
    ckv::set_parallel_workers(workers);
    PassResult result = run_pass(setup, trace_seed(seed, index), nullptr);
    result.peak_rss_mb = peak_rss_mib();
    return result;
  });
}

/// The run's traces, pooled: sums of every pass's results.
struct Pool {
  double generated = 0.0;
  double prompt = 0.0;
  double makespan_ms = 0.0;
  double tick_wall_ms = 0.0;
  double recall_weighted = 0.0;
  double recall_steps = 0.0;
  Index offered = 0;
  Index failed = 0;  ///< shed or never finished
  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;
  std::map<std::string, double> layers;  ///< summed; "*_max" keys take the max

  void add(const PassResult& r) {
    generated += r.generated_tokens;
    prompt += r.prompt_tokens;
    makespan_ms += r.makespan_ms;
    tick_wall_ms += r.tick_wall_ms;
    recall_weighted += r.recall_weighted;
    recall_steps += r.recall_steps;
    offered += r.offered;
    failed += r.offered - r.finished;
    ttft_ms.insert(ttft_ms.end(), r.ttft_ms.begin(), r.ttft_ms.end());
    itl_ms.insert(itl_ms.end(), r.itl_ms.begin(), r.itl_ms.end());
    for (const auto& [key, value] : r.layers) {
      double& slot = layers[key];
      const bool is_max = key.size() > 4 && key.compare(key.size() - 4, 4, "_max") == 0;
      slot = is_max ? std::max(slot, value) : slot + value;
    }
  }
  [[nodiscard]] double recall() const {
    // Vacuously 1.0 when no step had to drop a token (ServeMetrics' rule).
    return recall_steps > 0.0 ? recall_weighted / recall_steps : 1.0;
  }
  [[nodiscard]] double layer(const std::string& key) const {
    const auto found = layers.find(key);
    return found == layers.end() ? 0.0 : found->second;
  }
};

// ---- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

void print_result(const std::vector<Metric>& metrics, Index attempted, Index failed) {
  std::printf("\n%-32s %20s  %s\n", "metric", "value", "unit");
  for (const Metric& metric : metrics) {
    check(std::isfinite(metric.value), metric.name + " is not a finite number");
    std::printf("%-32s %20.6f  %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& failure : g_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::ostringstream json;
  json << "{\"correct\": " << (g_failures.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << format_number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

/// States a tail percentile with its sample count, and checks that >= 10
/// samples lie beyond it.
void report_tail(const char* what, std::size_t n, double p) {
  const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
  std::printf("# %s: tail = p%g over %zu samples (%.1f beyond)\n", what, p, n, beyond);
  check(beyond >= 10.0, std::string(what) + ": fewer than 10 samples beyond its tail");
}

// ---- modes -------------------------------------------------------------------

/// --trace 0: end-to-end metrics at the benchmark's worker count.
int run_end_to_end(const Workload& w, const ServeSetup& setup, std::uint64_t seed,
                   double seconds, int workers) {
  std::vector<PassResult> passes;
  std::vector<std::uint64_t> signatures;
  Pool pool;
  const Clock::time_point begin = Clock::now();
  // Every trace once (that is the virtual sample), then round-robin until
  // the measuring window is spent; host metrics are medians over passes.
  for (Index i = 0; i < w.traces || ms_between(begin, Clock::now()) < seconds * 1000.0;
       ++i) {
    const Index t = i % w.traces;
    PassResult r = plain_pass(setup, seed, t, workers);
    if (i < w.traces) {
      signatures.push_back(r.signature);
      pool.add(r);
    } else {
      check(r.signature == signatures[static_cast<std::size_t>(t)],
            "a repeated trace produced different virtual-clock results");
    }
    passes.push_back(std::move(r));
  }
  const double measured_s = ms_between(begin, Clock::now()) / 1000.0;

  // Determinism gate: trace 0 again at one worker through the timing
  // decorator must reproduce the multi-worker untraced virtual results.
  const PassResult serial = child_pass([&] {
    ckv::set_parallel_workers(1);
    Recorder recorder;
    return run_pass(setup, trace_seed(seed, 0), &recorder);
  });
  check(serial.signature == signatures[0],
        "virtual-clock results differ between " + std::to_string(workers) +
            " workers untraced and 1 worker traced");

  std::vector<double> tok_per_s;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  std::vector<double> ticks;
  for (const PassResult& r : passes) {
    tok_per_s.push_back(r.host_tok_per_s());
    setup_s.push_back(r.setup_s());
    rss_mb.push_back(r.peak_rss_mb);
    ticks.insert(ticks.end(), r.tick_ms.begin(), r.tick_ms.end());
  }
  std::printf("# %zu passes over %lld traces in %.2f s; host tok/s per pass:",
              passes.size(), static_cast<long long>(w.traces), measured_s);
  for (const double value : tok_per_s) {
    std::printf(" %.0f", value);
  }
  std::printf("\n");
  report_tail("host_tick_ms", ticks.size(), w.tick_tail_pct);
  report_tail("virt_ttft_ms", pool.ttft_ms.size(), w.ttft_tail_pct);
  report_tail("virt_itl_ms", pool.itl_ms.size(), w.itl_tail_pct);
  std::printf("# open loop: Poisson arrivals at %g rps on the virtual clock; TTFT is "
              "timed from each request's due arrival; generator lateness is 0 by "
              "construction (arrivals are trace timestamps)\n",
              w.rps);

  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"host_tok_per_s", median(tok_per_s), "tok/s"},
      {"host_tick_ms_p50", percentile(ticks, 50.0), "ms"},
      {"host_tick_ms_tail", percentile(ticks, w.tick_tail_pct), "ms"},
      {"host_peak_rss_mb", median(rss_mb), "MiB"},
      {"virt_tok_per_s", pool.generated / (pool.makespan_ms / 1000.0), "tok/s"},
      {"virt_ttft_ms_p50", percentile(pool.ttft_ms, 50.0), "ms"},
      {"virt_ttft_ms_tail", percentile(pool.ttft_ms, w.ttft_tail_pct), "ms"},
      {"virt_itl_ms_p50", percentile(pool.itl_ms, 50.0), "ms"},
      {"virt_itl_ms_tail", percentile(pool.itl_ms, w.itl_tail_pct), "ms"},
      {"recall_at_b", pool.recall(), "ratio"},
      {"served_frac",
       1.0 - ratio(static_cast<double>(pool.failed), static_cast<double>(pool.offered)),
       "ratio"},
  };
  print_result(metrics, pool.offered, pool.failed);
  return g_failures.empty() ? 0 : 1;
}

/// --trace 1: per-layer metrics. Every trace runs untraced and then traced,
/// both at one worker so layer times partition the tick wall; trace 0 also
/// runs untraced at the benchmark's worker count for the parallel layer.
int run_layers(const Workload& w, const ServeSetup& setup, std::uint64_t seed,
               int workers, const std::string& trace_out) {
  Pool untraced;
  Pool traced;
  std::vector<double> trace_gen_ms;
  std::uint64_t signature0 = 0;
  for (Index t = 0; t < w.traces; ++t) {
    const PassResult plain = plain_pass(setup, seed, t, 1);
    const PassResult timed = child_pass([&] {
      ckv::set_parallel_workers(1);
      Recorder recorder;
      recorder.set_spans_enabled(t == 0 && !trace_out.empty());
      PassResult result = run_pass(setup, trace_seed(seed, t), &recorder);
      if (recorder.spans_enabled()) {
        std::ofstream out(trace_out);
        recorder.write_chrome_trace(out);
        if (!out) {
          result.failures.push_back("cannot write " + trace_out);
        }
      }
      // Prompt synthesis out of band: the ProceduralContextModel
      // constructor Session runs at admission, on the trace's first
      // requests.
      const std::vector<ckv::ServeRequest> requests =
          ckv::make_poisson_trace(setup.trace, trace_seed(seed, t));
      for (std::size_t i = 0; i < std::min<std::size_t>(4, requests.size()); ++i) {
        const Clock::time_point begin = Clock::now();
        const ckv::ProceduralContextModel model(setup.session.shape,
                                                setup.session.params, requests[i].seed,
                                                requests[i].prompt_len);
        result.layers["model.synth_ms"] += ms_between(begin, Clock::now());
        result.layers["model.synth_tokens"] += static_cast<double>(model.prompt_len());
      }
      return result;
    });
    check(timed.signature == plain.signature,
          "virtual-clock results differ between the traced and untraced runs");
    signature0 = t == 0 ? plain.signature : signature0;
    trace_gen_ms.push_back(plain.trace_gen_ms);
    trace_gen_ms.push_back(timed.trace_gen_ms);
    untraced.add(plain);
    traced.add(timed);
  }

  const PassResult wide = child_pass([&] {
    ckv::set_parallel_workers(workers);
    ckv::reset_parallel_worker_utilization();
    PassResult result = run_pass(setup, trace_seed(seed, 0), nullptr);
    double chunks_max = 0.0;
    double chunks_sum = 0.0;
    for (const ckv::WorkerUtilization& slot : ckv::parallel_worker_utilization()) {
      chunks_max = std::max(chunks_max, static_cast<double>(slot.chunks));
      chunks_sum += static_cast<double>(slot.chunks);
    }
    result.layers["parallel.worker_imbalance"] =
        ratio(chunks_max, chunks_sum / static_cast<double>(workers));
    return result;
  });
  check(wide.signature == signature0,
        "virtual-clock results differ between 1 and " + std::to_string(workers) +
            " workers");
  Pool parallel;
  parallel.add(wide);

  const Pool& p = traced;
  const double ticks = p.layer("serve.ticks");
  const double tick_ms = p.tick_wall_ms;
  const double core_ms = p.layer("core.host_ms");
  const double residual_ms = tick_ms - core_ms;
  const double synth_ms_per_ktok =
      ratio(p.layer("model.synth_ms"), p.layer("model.synth_tokens") / 1000.0);
  const double synth_share = ratio(synth_ms_per_ktok * p.prompt / 1000.0, tick_ms);
  const double fetched = p.layer("kvcache.tokens_fetched");
  const double hits = p.layer("kvcache.tokens_cache_hit");
  const double issued = p.layer("kvcache.prefetch_issued");
  std::printf("# layer passes at 1 worker: %lld traces, %.0f ticks, %.1f ms tick wall; "
              "share in core %.3f, residual %.3f, prompt synthesis (est.) %.3f\n",
              static_cast<long long>(w.traces), ticks, tick_ms, ratio(core_ms, tick_ms),
              ratio(residual_ms, tick_ms), synth_share);
  if (!trace_out.empty()) {
    std::printf("# host spans of trace 0 written to %s\n", trace_out.c_str());
  }

  const std::vector<Metric> metrics = {
      {"workload.trace_gen_ms", median(trace_gen_ms), "ms"},
      {"model.synth_ms_per_ktok", synth_ms_per_ktok, "ms/ktok"},
      {"model.synth_share", synth_share, "ratio"},
      {"core.factory.host_ms", p.layer("core.factory.host_ms"), "ms"},
      {"core.prefill_chunk.calls", p.layer("core.prefill_chunk.calls"), "count"},
      {"core.prefill_chunk.host_ms", p.layer("core.prefill_chunk.host_ms"), "ms"},
      {"core.select.calls", p.layer("core.select.calls"), "count"},
      {"core.select.host_ms", p.layer("core.select.host_ms"), "ms"},
      {"core.select.us_per_call",
       ratio(p.layer("core.select.host_ms") * 1000.0, p.layer("core.select.calls")),
       "us"},
      {"core.representations_scored", p.layer("core.representations_scored"), "count"},
      {"core.observe_decode.host_ms", p.layer("core.observe_decode.host_ms"), "ms"},
      {"core.release.calls", p.layer("core.release.calls"), "count"},
      {"core.release.host_ms", p.layer("core.release.host_ms"), "ms"},
      {"core.release.tokens", p.layer("core.release.tokens"), "count"},
      {"core.cancel.calls", p.layer("core.cancel.calls"), "count"},
      {"core.cancel.host_ms", p.layer("core.cancel.host_ms"), "ms"},
      {"kvcache.tokens_fetched", fetched, "count"},
      {"kvcache.cache_hit_ratio", ratio(hits, hits + fetched), "ratio"},
      {"kvcache.prefetch_issued", issued, "count"},
      {"kvcache.prefetch_hits", p.layer("kvcache.prefetch_hits"), "count"},
      {"kvcache.prefetch_useful_ratio", ratio(p.layer("kvcache.prefetch_hits"), issued),
       "ratio"},
      {"serve.ticks", ticks, "count"},
      {"serve.tick_host_ms", tick_ms, "ms"},
      {"serve.tick_residual_host_ms", residual_ms, "ms"},
      {"serve.residual_share", ratio(residual_ms, tick_ms), "ratio"},
      {"serve.batch_size_mean", ratio(p.layer("serve.batch_sum"), ticks), "count"},
      {"serve.waiting_mean", ratio(p.layer("serve.waiting_sum"), ticks), "count"},
      {"serve.waiting_max", p.layer("serve.waiting_max"), "count"},
      {"serve.budget_util_mean", ratio(p.layer("serve.budget_util_sum"), ticks), "ratio"},
      {"serve.preemptions", p.layer("serve.preemptions"), "count"},
      {"sim.demand_stall_ms", p.layer("sim.demand_stall_ms"), "ms"},
      {"sim.link_utilization",
       ratio(p.layer("sim.link_busy_ms"), p.layer("sim.makespan_ms")), "ratio"},
      {"sim.late_prefetch_tokens", p.layer("sim.late_prefetch_tokens"), "count"},
      {"sim.fault_fetch_faults", p.layer("sim.fault_fetch_faults"), "count"},
      {"sim.retry_recovered", p.layer("sim.retry_recovered"), "count"},
      {"sim.dead_fetches", p.layer("sim.dead_fetches"), "count"},
      {"sim.degraded_steps", p.layer("sim.degraded_steps"), "count"},
      {"sim.wire_failures", p.layer("sim.wire_failures"), "count"},
      {"sim.shed", p.layer("sim.shed"), "count"},
      {"sim.aborts", p.layer("sim.aborts"), "count"},
      {"parallel.fanout_fraction",
       ratio(parallel.layer("parallel.fanout_sessions"),
             parallel.layer("parallel.advanced_sessions")),
       "ratio"},
      {"parallel.advance_wall_ms", parallel.layer("parallel.advance_wall_ms"), "ms"},
      {"parallel.worker_imbalance", parallel.layer("parallel.worker_imbalance"),
       "ratio"},
      {"trace.overhead_tok_per_s",
       (p.prompt + p.generated) / (tick_ms / 1000.0) -
           (untraced.prompt + untraced.generated) / (untraced.tick_wall_ms / 1000.0),
       "tok/s"},
  };
  print_result(metrics, traced.offered, traced.failed);
  return g_failures.empty() ? 0 : 1;
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: ckv_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <sha>] [--trace-out <file>]\nworkloads:",
               message.c_str());
  for (const Workload& workload : kWorkloads) {
    std::fprintf(stderr, " %s", workload.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace ckvbench

int main(int argc, char** argv) {
  using namespace ckvbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage("bad argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const auto& entry : args) {
    const std::string& key = entry.first;
    if (key != "workload" && key != "seed" && key != "seconds" && key != "trace" &&
        key != "commit" && key != "trace-out") {
      return usage("unknown option --" + key);
    }
  }
  if (args.count("workload") == 0 || args.count("seed") == 0 ||
      args.count("seconds") == 0 || args.count("trace") == 0) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  const Workload* workload = find_workload(args["workload"]);
  if (workload == nullptr) {
    return usage("unknown workload '" + args["workload"] + "'");
  }
  try {
    const auto seed = static_cast<std::uint64_t>(std::stoull(args["seed"]));
    const double seconds = std::stod(args["seconds"]);
    const int trace = std::stoi(args["trace"]);
    if (seconds <= 0.0 || (trace != 0 && trace != 1)) {
      return usage("--seconds must be positive and --trace 0 or 1");
    }
    // The benchmark's worker count: up to 4, never more workers than cores.
    const int workers = std::min(4, hardware_threads());
    std::printf("# ckv_bench workload=%s seed=%llu seconds=%g trace=%d\n", workload->name,
                static_cast<unsigned long long>(seed), seconds, trace);
    std::printf("# host: nproc=%d workers=%d build=%s native_arch=%s compiler=\"%s\" "
                "commit=%s\n",
                hardware_threads(), workers, CKVB_BUILD_TYPE,
                CKVB_NATIVE_ARCH ? "ON" : "OFF", CKVB_COMPILER,
                args.count("commit") != 0 ? args["commit"].c_str() : "unknown");
    std::printf("# workload: %lld traces x %lld requests at %g rps, prompt ~%lld, "
                "decode ~%lld: %s\n",
                static_cast<long long>(workload->traces),
                static_cast<long long>(workload->requests), workload->rps,
                static_cast<long long>(workload->prompt),
                static_cast<long long>(workload->decode), workload->why);
    const ServeSetup setup = make_setup(*workload);
    return trace == 0 ? run_end_to_end(*workload, setup, seed, seconds, workers)
                      : run_layers(*workload, setup, seed, workers,
                                   args.count("trace-out") != 0 ? args["trace-out"] : "");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
