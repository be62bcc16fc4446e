#include "probe.hpp"

#include <algorithm>
#include <cstdio>

#include "util/parallel.hpp"

namespace ckvbench {

namespace {

std::int64_t ns_since(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count();
}

}  // namespace

SpanTag* Recorder::new_tag() {
  const std::lock_guard<std::mutex> lock(mutex_);
  tags_.emplace_back();
  return &tags_.back();
}

void Recorder::add_span(const char* name, Clock::time_point begin,
                        Clock::time_point end, std::int64_t id,
                        std::int64_t parent, const SpanTag* tag) {
  if (!spans_enabled_) {
    return;
  }
  Span span;
  span.name = name;
  span.begin_us = std::chrono::duration<double, std::micro>(begin - epoch_).count();
  span.dur_us = std::chrono::duration<double, std::micro>(end - begin).count();
  span.id = id;
  span.parent = parent;
  span.tag = tag;
  span.tid = 1 + ckv::parallel_worker_slot();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void Recorder::write_chrome_trace(std::ostream& out) const {
  // One process ("ckvbench host") with one thread per worker slot; the
  // spans are complete ("X") events in host microseconds.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"ckvbench host\"}}";
  int max_tid = 1;
  for (const Span& span : spans_) {
    max_tid = std::max(max_tid, span.tid);
  }
  for (int tid = 1; tid <= max_tid; ++tid) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"host worker " << (tid - 1) << "\"}}";
  }
  char buffer[320];
  for (const Span& span : spans_) {
    const std::int64_t id = span.tag != nullptr ? span.tag->request_id : span.id;
    std::snprintf(buffer, sizeof(buffer),
                  ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld}}",
                  span.name, span.tid, span.begin_us, span.dur_us,
                  static_cast<long long>(id), static_cast<long long>(span.parent));
    out << buffer;
  }
  out << "\n]}\n";
}

void TimedSelector::finish(OpCounter& counter, const char* span,
                           Clock::time_point begin) {
  const Clock::time_point end = Clock::now();
  counter.add(ns_since(begin, end));
  recorder_.add_core_span(span, begin, end, tag_);
}

void TimedSelector::observe_prefill(const ckv::Matrix& keys, const ckv::Matrix& values) {
  const Clock::time_point begin = Clock::now();
  inner_->observe_prefill(keys, values);
  finish(recorder_.core().prefill_chunk, "core.prefill_chunk", begin);
}

void TimedSelector::observe_prefill_chunk(const ckv::Matrix& keys,
                                          const ckv::Matrix& values,
                                          bool last_chunk) {
  const Clock::time_point begin = Clock::now();
  inner_->observe_prefill_chunk(keys, values, last_chunk);
  finish(recorder_.core().prefill_chunk, "core.prefill_chunk", begin);
}

void TimedSelector::observe_decode(std::span<const float> key,
                                   std::span<const float> value) {
  const Clock::time_point begin = Clock::now();
  inner_->observe_decode(key, value);
  finish(recorder_.core().observe_decode, "core.observe_decode", begin);
}

ckv::SelectionResult TimedSelector::select(std::span<const float> query,
                                           ckv::Index budget) {
  const Clock::time_point begin = Clock::now();
  ckv::SelectionResult result = inner_->select(query, budget);
  finish(recorder_.core().select, "core.select", begin);
  CoreCounters& core = recorder_.core();
  core.representations_scored.fetch_add(result.representations_scored,
                                        std::memory_order_relaxed);
  core.tokens_fetched.fetch_add(result.tokens_fetched, std::memory_order_relaxed);
  core.tokens_cache_hit.fetch_add(result.tokens_cache_hit, std::memory_order_relaxed);
  core.tokens_prefetch_hit.fetch_add(result.tokens_prefetch_hit,
                                     std::memory_order_relaxed);
  core.tokens_prefetch_issued.fetch_add(result.tokens_prefetch_issued,
                                        std::memory_order_relaxed);
  return result;
}

void TimedSelector::observe_attention(std::span<const ckv::Index> indices,
                                      std::span<const float> probabilities) {
  const Clock::time_point begin = Clock::now();
  inner_->observe_attention(indices, probabilities);
  finish(recorder_.core().observe_attention, "core.observe_attention", begin);
}

ckv::Index TimedSelector::release_fast_tier() {
  const Clock::time_point begin = Clock::now();
  const ckv::Index moved = inner_->release_fast_tier();
  finish(recorder_.core().release, "core.release", begin);
  recorder_.core().release_tokens.fetch_add(moved, std::memory_order_relaxed);
  return moved;
}

ckv::Index TimedSelector::cancel_prefetches(ckv::obs::FetchCancelReason reason) {
  const Clock::time_point begin = Clock::now();
  const ckv::Index canceled = inner_->cancel_prefetches(reason);
  finish(recorder_.core().cancel, "core.cancel", begin);
  return canceled;
}

ckv::SelectorFactory decorate_factory(ckv::SelectorFactory base, Recorder& recorder) {
  return [base = std::move(base), &recorder](ckv::Index layer, ckv::Index head,
                                             ckv::Index head_dim) {
    const Clock::time_point begin = Clock::now();
    std::unique_ptr<ckv::KVSelector> inner = base(layer, head, head_dim);
    SpanTag* tag = recorder.new_tag();
    auto timed = std::make_unique<TimedSelector>(std::move(inner), recorder, tag);
    const Clock::time_point end = Clock::now();
    recorder.core().factory.add(ns_since(begin, end));
    recorder.add_core_span("core.factory", begin, end, tag);
    return std::unique_ptr<ckv::KVSelector>(std::move(timed));
  };
}

}  // namespace ckvbench
