#pragma once

// Measurement machinery of the repo benchmark, kept apart from the
// workloads it drives: a monotonic clock, an in-memory span tracer, an
// allocation counter, and the open-loop load generator.
// Everything here observes the library from outside: it only times calls
// into public functions.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/value.hpp"
#include "serving/load_control.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One closed span: a call into a layer, timed from the benchmark's side.
struct SpanRecord {
  const char* name = nullptr;  // static string, "<module>.<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // 0 = not part of a request
};

/// In-memory span store. Disabled unless the run is traced; a disabled
/// tracer costs one relaxed load per span site. Spans are appended under a
/// mutex (the traced run is separate from the timed runs, so the lock's
/// cost shows up only as reported tracing overhead) and written out once,
/// when the run ends.
class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void record(const SpanRecord& span);

  std::size_t size() const;
  std::size_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// Write every span as tab-separated lines with a header; returns false
  /// on I/O failure.
  bool write_tsv(const std::string& path, const std::string& workload) const;

 private:
  static constexpr std::size_t kMaxSpans = 2'000'000;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::size_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// The calling thread's innermost open span and request (parent links).
struct SpanContext {
  std::uint64_t span = 0;
  std::uint64_t request = 0;
};
SpanContext& current_span();

/// RAII span around one call into a layer. Nests through a thread-local
/// parent link; `request` (0 = inherit) tags spans of one request.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0) {
    Tracer& t = Tracer::instance();
    if (!t.enabled()) return;
    SpanContext& ctx = current_span();
    rec_.name = name;
    rec_.id = t.next_id();
    rec_.parent = ctx.span;
    rec_.request = request != 0 ? request : ctx.request;
    saved_ = ctx;
    ctx.span = rec_.id;
    ctx.request = rec_.request;
    rec_.start_ns = now_ns();
  }
  ~Span() {
    if (rec_.id == 0) return;
    rec_.end_ns = now_ns();
    current_span() = saved_;
    Tracer::instance().record(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_;
  SpanContext saved_;
};

// ---------------------------------------------------------------------------
// Allocation counting (alloc_count.cpp replaces global operator new)
// ---------------------------------------------------------------------------

/// Heap allocations made so far by the calling thread.
std::uint64_t thread_allocations();

// ---------------------------------------------------------------------------
// Open-loop load generator
// ---------------------------------------------------------------------------

/// How one submitted request resolved.
enum class Outcome : std::uint8_t {
  kPending = 0,
  kCompleted,
  kQueueFull,
  kShedBestEffort,
  kPredictedMiss,
  kExpired,
  kError,
};

Outcome classify(const std::exception_ptr& error);

/// Completion callback handed to the system under test.
using Done = std::function<void(double prediction, std::exception_ptr error)>;

/// Submits request `index` (its pre-built row) and arranges for `done` to
/// run exactly once when it resolves.
using SubmitFn = std::function<void(std::size_t index, willump::data::Batch row, Done done)>;

/// Per-request record of one open-loop run.
struct OpenLoopResult {
  std::size_t sent = 0;
  std::vector<Outcome> outcome;
  std::vector<double> prediction;
  std::vector<double> latency_us;  // completion minus due time; valid if completed
  std::vector<std::uint32_t> resolutions;  // callbacks per request (must be 1)
  double window_s = 0.0;       // first due time to last completion
  double late_p99_us = 0.0;    // p99 of (actual submit start - due time)
  double submit_max_us = 0.0;  // longest single submit() call
  bool drained = true;         // every request resolved before the timeout

  std::size_t count(Outcome o) const {
    return static_cast<std::size_t>(std::count(outcome.begin(), outcome.end(), o));
  }
};

/// Poisson arrival offsets (seconds from the start) at `qps` for `duration`.
std::vector<double> poisson_schedule(double qps, double duration_s, std::uint64_t seed);

/// Drive one open loop from the calling thread: sleep (never spin) until
/// each request is due, submit it, and time it from its due time to its
/// completion, so a late generator or a blocking submit shows in latency.
/// Rows are built by the caller before the timed window and consumed here.
/// Waits up to `drain_timeout_s` for every request to resolve.
OpenLoopResult run_open_loop(std::vector<willump::data::Batch> rows,
                             const std::vector<double>& due_s,
                             const SubmitFn& submit, double drain_timeout_s);

}  // namespace perfbench
