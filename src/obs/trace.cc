#include "obs/trace.h"

namespace cad::obs {

namespace {

// Stable small per-thread ordinals: nicer tids in trace viewers than raw
// pthread handles, and deterministic in single-threaded tests.
uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

// Current span nesting depth of this thread (incremented while a recording
// span is open).
thread_local int t_span_depth = 0;

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // leaked: outlives all users
  return *tracer;
}

void Tracer::Record(TraceEvent event) {
  // cad-lint: allow(CL007) only reached when a tracer is attached to the span; tracing is opt-in diagnostics, off on the default hot path
  common::MutexLock lock(mu_);  // cad-lint: allow(CL010) capacity-capped span-buffer append; opt-in diagnostics path
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // cad-lint: allow(CL007) tracer-attached diagnostics path only; capacity-capped ring append
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  common::MutexLock lock(mu_);
  return events_;
}

size_t Tracer::event_count() const {
  common::MutexLock lock(mu_);
  return events_.size();
}

void Tracer::Clear() {
  // cad-lint: allow(CL007) name-resolution over-approximation: the round loop's `.Clear()` calls hit RoundOutput, never the tracer's test-only reset
  common::MutexLock lock(mu_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

int64_t Tracer::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Span::Span(Tracer* tracer, std::string_view name, std::string_view category) {
  if (tracer == nullptr || !tracer->enabled()) return;  // inert span
  tracer_ = tracer;
  event_.name = name;
  event_.category = category;
  event_.thread_id = ThreadOrdinal();
  event_.depth = t_span_depth++;
  event_.start_us = tracer->NowMicros();
}

void Span::AddArg(std::string_view key, std::string value) {
  if (tracer_ == nullptr) return;
  // cad-lint: allow(CL007) inert unless a tracer is attached (opt-in diagnostics); guarded by the nullptr check above
  event_.args.emplace_back(std::string(key), std::move(value));
}

void Span::End() {
  if (tracer_ == nullptr) return;
  event_.duration_us = tracer_->NowMicros() - event_.start_us;
  --t_span_depth;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  tracer->Record(std::move(event_));
}

}  // namespace cad::obs
