// One pass: one trace run to completion through the public ckv API, with
// the benchmark's between-tick observations and correctness checks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace ckvbench {

/// Everything one pass yields. Host fields vary run to run; every virtual
/// field is folded into `signature`. fields() lists each member once for
/// the archive that carries a pass out of its child process.
struct PassResult {
  // host clock
  double trace_gen_ms = 0.0;
  double construct_ms = 0.0;
  double warmup_ms = 0.0;
  std::vector<double> tick_ms;
  double tick_wall_ms = 0.0;
  double peak_rss_mb = 0.0;
  // virtual clock
  std::uint64_t signature = 0;
  double makespan_ms = 0.0;
  double prompt_tokens = 0.0;
  double generated_tokens = 0.0;
  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;
  double recall_weighted = 0.0;
  double recall_steps = 0.0;
  std::int64_t offered = 0;
  std::int64_t finished = 0;
  /// Per-layer sums (serve.*, sim.*, parallel.*, and core.* / kvcache.*
  /// when the pass ran through the timing decorator).
  std::map<std::string, double> layers;
  /// Correctness checks that failed during the pass.
  std::vector<std::string> failures;

  [[nodiscard]] double host_tok_per_s() const {
    return (prompt_tokens + generated_tokens) / (tick_wall_ms / 1000.0);
  }
  [[nodiscard]] double setup_s() const {
    return (trace_gen_ms + construct_ms + warmup_ms) / 1000.0;
  }

  template <class Archive>
  void fields(Archive& a) {
    a(trace_gen_ms), a(construct_ms), a(warmup_ms), a(tick_ms), a(tick_wall_ms);
    a(peak_rss_mb), a(signature), a(makespan_ms), a(prompt_tokens);
    a(generated_tokens), a(ttft_ms), a(itl_ms), a(recall_weighted), a(recall_steps);
    a(offered), a(finished), a(layers), a(failures);
  }
};

/// Runs the trace drawn from `seed` to completion at the current worker
/// count. With a recorder, every selector is a TimedSelector, the ticks
/// become serve.tick spans and the decorator's counters land in `layers`.
PassResult run_pass(const ServeSetup& setup, std::uint64_t seed, Recorder* recorder);

/// Peak resident set of this process so far (MiB).
double peak_rss_mib();

}  // namespace ckvbench
