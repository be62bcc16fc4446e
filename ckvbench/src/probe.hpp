// Host-clock probes the benchmark wraps around the library's public API:
// a transparent KVSelector decorator injected through SelectorFactory,
// counters it feeds, and an in-memory span list exported as Chrome
// trace-event JSON. Nothing here changes what the program computes — the
// decorator forwards every KVSelector virtual, and the benchmark proves it
// by comparing virtual-clock results with and without it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "core/kv_selector.hpp"

namespace ckvbench {

using Clock = std::chrono::steady_clock;

/// Host milliseconds between two steady-clock readings.
inline double ms_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// Call count plus host nanoseconds for one selector operation, summed
/// over every thread that ran it.
struct OpCounter {
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> ns{0};

  void add(std::int64_t elapsed_ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  }
  [[nodiscard]] double ms() const { return static_cast<double>(ns.load()) / 1e6; }
};

/// Everything the decorator counts. Selection counts come straight from
/// each SelectionResult, so they are the kvcache layer's own numbers.
struct CoreCounters {
  OpCounter factory;
  OpCounter prefill_chunk;  ///< observe_prefill + observe_prefill_chunk
  OpCounter select;
  OpCounter observe_decode;
  OpCounter observe_attention;
  OpCounter release;
  OpCounter cancel;
  std::atomic<std::int64_t> release_tokens{0};
  std::atomic<std::int64_t> representations_scored{0};
  std::atomic<std::int64_t> tokens_fetched{0};
  std::atomic<std::int64_t> tokens_cache_hit{0};
  std::atomic<std::int64_t> tokens_prefetch_hit{0};
  std::atomic<std::int64_t> tokens_prefetch_issued{0};

  /// Host ms of every selector call (the part of a tick the core layer owns).
  [[nodiscard]] double host_ms() const {
    return factory.ms() + prefill_chunk.ms() + select.ms() + observe_decode.ms() +
           observe_attention.ms() + release.ms() + cancel.ms();
  }
};

/// Which request a selector belongs to. The factory cannot know it (it is
/// called with layer/head only), so the benchmark fills it in after the
/// tick that admitted the session; spans resolve it when exported.
struct SpanTag {
  std::int64_t request_id = -1;
};

/// One complete span on the benchmark's host track.
struct Span {
  const char* name = "";
  double begin_us = 0.0;
  double dur_us = 0.0;
  std::int64_t id = -1;      ///< tick index or request id
  std::int64_t parent = -1;  ///< enclosing tick index for core.* spans
  const SpanTag* tag = nullptr;  ///< resolves id for core.* spans
  int tid = 0;
};

/// Counters plus the optional span list of one traced pass.
class Recorder {
 public:
  Recorder() : epoch_(Clock::now()) {}

  CoreCounters& core() { return core_; }
  const CoreCounters& core() const { return core_; }

  /// Spans are kept only while enabled (the first traced trace of a run).
  void set_spans_enabled(bool enabled) { spans_enabled_ = enabled; }
  [[nodiscard]] bool spans_enabled() const { return spans_enabled_; }

  /// Tick index core.* spans name as their parent.
  void set_current_tick(std::int64_t tick) {
    current_tick_.store(tick, std::memory_order_relaxed);
  }

  SpanTag* new_tag();

  void add_span(const char* name, Clock::time_point begin, Clock::time_point end,
                std::int64_t id, std::int64_t parent, const SpanTag* tag);
  /// A core.* span: parented to the current tick, id from the tag.
  void add_core_span(const char* name, Clock::time_point begin,
                     Clock::time_point end, const SpanTag* tag) {
    add_span(name, begin, end, -1, current_tick_.load(std::memory_order_relaxed),
             tag);
  }

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  void write_chrome_trace(std::ostream& out) const;

 private:
  Clock::time_point epoch_;
  CoreCounters core_;
  bool spans_enabled_ = false;
  std::atomic<std::int64_t> current_tick_{-1};
  std::mutex mutex_;
  std::vector<Span> spans_;     // guarded by mutex_
  std::deque<SpanTag> tags_;    // guarded by mutex_; deque keeps addresses
};

/// Transparent timing decorator: forwards every KVSelector virtual to the
/// wrapped selector and times the ones that do work.
class TimedSelector final : public ckv::KVSelector {
 public:
  TimedSelector(std::unique_ptr<ckv::KVSelector> inner, Recorder& recorder,
                SpanTag* tag)
      : inner_(std::move(inner)), recorder_(recorder), tag_(tag) {}

  [[nodiscard]] SpanTag* tag() const { return tag_; }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void observe_prefill(const ckv::Matrix& keys, const ckv::Matrix& values) override;
  [[nodiscard]] bool supports_chunked_prefill() const override {
    return inner_->supports_chunked_prefill();
  }
  void observe_prefill_chunk(const ckv::Matrix& keys, const ckv::Matrix& values,
                             bool last_chunk) override;
  void observe_decode(std::span<const float> key,
                      std::span<const float> value) override;
  ckv::SelectionResult select(std::span<const float> query,
                              ckv::Index budget) override;
  void observe_attention(std::span<const ckv::Index> indices,
                         std::span<const float> probabilities) override;
  [[nodiscard]] bool is_recallable() const override { return inner_->is_recallable(); }
  [[nodiscard]] ckv::Index context_size() const override {
    return inner_->context_size();
  }
  [[nodiscard]] ckv::Index fast_resident_tokens() const override {
    return inner_->fast_resident_tokens();
  }
  ckv::Index release_fast_tier() override;
  ckv::Index cancel_prefetches(ckv::obs::FetchCancelReason reason =
                                   ckv::obs::FetchCancelReason::kEnforcement) override;
  [[nodiscard]] std::int64_t prefetch_canceled_tokens(
      ckv::obs::FetchCancelReason reason) const override {
    return inner_->prefetch_canceled_tokens(reason);
  }
  void attach_fast_tier_ledger(ckv::FastTierLedger* ledger) override {
    inner_->attach_fast_tier_ledger(ledger);
  }
  void set_degraded_step(bool degraded) override { inner_->set_degraded_step(degraded); }

 private:
  /// Adds one timed call to `counter` and, when enabled, a core.* span.
  void finish(OpCounter& counter, const char* span, Clock::time_point begin);

  std::unique_ptr<ckv::KVSelector> inner_;
  Recorder& recorder_;
  SpanTag* tag_;
};

/// Wraps `base` so every selector it creates is a TimedSelector feeding
/// `recorder`; the factory call itself is timed as core.factory.
ckv::SelectorFactory decorate_factory(ckv::SelectorFactory base, Recorder& recorder);

}  // namespace ckvbench
