// The benchmark's named traffic mixes and the serving stack each runs on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/clusterkv_engine.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/trace.hpp"

namespace ckvbench {

using ckv::Index;

/// One traffic mix. Prompt lengths are drawn in [0.8, 1.2] x prompt and
/// generation lengths in [2/3, 4/3] x decode, as `ckv serve` draws them.
/// Every rate is above the workload's service capacity, so the batch stays
/// full and the virtual metrics measure the system, not the draw: near
/// saturation a Poisson trace's TTFT and RSS swing 25-120% between seeds.
struct Workload {
  const char* name;
  const char* why;
  Index requests;  ///< requests per trace
  double rps;      ///< Poisson arrival rate on the virtual clock
  Index prompt;
  Index decode;
  Index traces;    ///< independent traces per run (virtual metrics pool them)
  Index max_running;  ///< BatchSchedulerConfig::max_running (0 = unlimited)
  bool contended;  ///< prefetch + 2.5 GB/s wire + overcommit + chaos faults
  /// Tail percentiles from the p50/p90/p99 ladder: the highest one that
  /// keeps >= 10 samples beyond it at the smallest sample a seed can draw
  /// (every run checks that it does).
  double ttft_tail_pct;
  double itl_tail_pct;
  double tick_tail_pct;
};

inline constexpr Workload kWorkloads[] = {
    {"prefill-heavy",
     "long-document QA, one request at a time: 4k-token prompts, 8 generated; "
     "host time in prompt synthesis and clustering",
     24, 16.0, 4000, 8, 5, 1, false, 90.0, 90.0, 99.0},
    {"decode-heavy",
     "long generation, ~16 sessions batched: 900-token prompts, 256 generated; "
     "host time in select, cluster cache and attention",
     64, 16.0, 900, 256, 2, 0, false, 90.0, 99.0, 99.0},
    {"contended",
     "tight overcommitted budget, prefetch, 2.5 GB/s wire, chaos faults: "
     "preemption, wire stalls, retries, aborts",
     48, 16.0, 900, 64, 6, 0, true, 90.0, 99.0, 99.0},
};

inline const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

/// The serving stack of one workload, shaped like `ckv serve`'s defaults
/// (1 layer x 2 heads x 64 dims, 128-token per-session budget, ClusterKV
/// with 20 tokens per cluster and cross-chunk repair).
struct ServeSetup {
  ckv::TraceConfig trace;
  ckv::SessionConfig session;
  ckv::ClusterKVConfig clusterkv;
  ckv::BatchSchedulerConfig scheduler;
};

inline ServeSetup make_setup(const Workload& workload) {
  ServeSetup setup;
  setup.trace.num_requests = workload.requests;
  setup.trace.offered_rps = workload.rps;
  setup.trace.prompt_len_min = std::max<Index>(1, workload.prompt * 8 / 10);
  setup.trace.prompt_len_max = workload.prompt * 12 / 10;
  setup.trace.decode_len_min = std::max<Index>(1, workload.decode * 2 / 3);
  setup.trace.decode_len_max = workload.decode * 4 / 3;

  setup.session.shape.num_layers = 1;
  setup.session.shape.num_heads = 2;
  setup.session.shape.head_dim = 64;
  setup.session.params.head_dim = 64;
  setup.session.engine.budget = 128;
  setup.session.engine.full_attention_layers = 0;

  ckv::ClusterKVConfig& ckv = setup.clusterkv;
  ckv.tokens_per_cluster = 20;
  ckv.decode_interval = 32;
  ckv.decode_clusters = 2;
  ckv.prefetch_clusters = workload.contended ? 2 : 0;

  ckv::BatchSchedulerConfig& sched = setup.scheduler;
  sched.method = ckv::LatencyModel::Method::kClusterKV;
  sched.tiered_residency = true;
  sched.sink_tokens = ckv.sink_tokens;
  sched.decode_interval = ckv.decode_interval;
  sched.cache_depth = ckv.cache_depth;
  sched.tokens_per_cluster = ckv.tokens_per_cluster;
  sched.repair_refine_iterations = ckv.repair_refine_iterations;
  sched.repair_decode_interval = ckv.repair_decode_interval;
  sched.prefetch_clusters = ckv.prefetch_clusters;
  sched.prefill_chunk_tokens = 256;
  sched.max_running = workload.max_running;
  const double budget_mult = workload.contended ? 1.2 : 2.5;
  sched.admission_overcommit = workload.contended ? 2.0 : 1.0;
  sched.fast_tier_budget_bytes = static_cast<std::int64_t>(
      budget_mult *
      static_cast<double>((workload.prompt + workload.decode) *
                          ckv::session_token_bytes(setup.session) *
                          setup.session.shape.total_heads()));
  if (workload.contended) {
    sched.use_transfer_engine = true;
    sched.link_gbps = 2.5;
    sched.fault_plan = ckv::FaultPlan::chaos(7777);
    // Queue-head shedding off: a shed request is a refused request, and the
    // benchmark's workloads must complete every request they offer. The
    // burst windows still squeeze admission.
    sched.fault_plan.shed_wait_ms = 0.0;
  }
  return setup;
}

/// Seed of trace `index` within a run: decorrelated children of --seed.
inline std::uint64_t trace_seed(std::uint64_t seed, Index index) {
  return ckv::derive_seed(seed, "ckvbench-trace-" + std::to_string(index));
}

}  // namespace ckvbench
