#include "harness.hpp"

#include <cmath>
#include <condition_variable>
#include <fstream>
#include <thread>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(span);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write_tsv(const std::string& path, const std::string& workload) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "workload\tname\tstart_ns\tend_ns\tid\tparent\trequest\n";
  for (const SpanRecord& s : spans_) {
    out << workload << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.id << '\t' << s.parent << '\t' << s.request << '\n';
  }
  return static_cast<bool>(out.flush());
}

SpanContext& current_span() {
  thread_local SpanContext ctx;
  return ctx;
}

// ---------------------------------------------------------------------------
// Open-loop load generator
// ---------------------------------------------------------------------------

Outcome classify(const std::exception_ptr& error) {
  if (error == nullptr) return Outcome::kCompleted;
  try {
    std::rethrow_exception(error);
  } catch (const willump::serving::RejectedError& e) {
    switch (e.reason()) {
      case willump::serving::RejectReason::kQueueFull:
        return Outcome::kQueueFull;
      case willump::serving::RejectReason::kShedBestEffort:
        return Outcome::kShedBestEffort;
      case willump::serving::RejectReason::kPredictedMiss:
        return Outcome::kPredictedMiss;
      case willump::serving::RejectReason::kExpired:
        return Outcome::kExpired;
    }
    return Outcome::kError;
  } catch (...) {
    return Outcome::kError;
  }
}

std::vector<double> poisson_schedule(double qps, double duration_s,
                                     std::uint64_t seed) {
  willump::common::Rng rng(seed);
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(qps * duration_s * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    // Exponential gap via inversion; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.next_double()) / qps;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

namespace {

/// State shared between the generator and completion callbacks. Owned by
/// shared_ptr so a callback that fires after a drain timeout still writes
/// into live memory.
struct LoopState {
  explicit LoopState(std::size_t n)
      : outcome(n, Outcome::kPending),
        prediction(n, 0.0),
        done_ns(n, 0),
        resolutions(new std::atomic<std::uint32_t>[n]) {
    for (std::size_t i = 0; i < n; ++i) resolutions[i].store(0);
  }
  std::vector<Outcome> outcome;
  std::vector<double> prediction;
  std::vector<std::int64_t> done_ns;
  std::unique_ptr<std::atomic<std::uint32_t>[]> resolutions;
  std::atomic<std::size_t> resolved{0};
  std::mutex mu;
  std::condition_variable cv;
};

}  // namespace

OpenLoopResult run_open_loop(std::vector<willump::data::Batch> rows,
                             const std::vector<double>& due_s,
                             const SubmitFn& submit, double drain_timeout_s) {
  const std::size_t n = std::min(rows.size(), due_s.size());
  auto st = std::make_shared<LoopState>(n);
  Tracer& tracer = Tracer::instance();
  const bool traced = tracer.enabled();
  std::vector<double> late_us(n, 0.0);
  std::vector<std::int64_t> due_ns(n, 0);
  double submit_max_us = 0.0;

  // A short lead lets the first arrival be due after set-up of the loop.
  const std::int64_t start_ns = now_ns() + 2'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    due_ns[i] = start_ns + static_cast<std::int64_t>(due_s[i] * 1e9);
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due_ns[i])));
    const std::int64_t t0 = now_ns();
    late_us[i] = static_cast<double>(t0 - due_ns[i]) * 1e-3;

    Done done = [st, i, n](double prediction, std::exception_ptr error) {
      const std::int64_t t = now_ns();
      st->outcome[i] = classify(error);
      st->prediction[i] = prediction;
      st->done_ns[i] = t;
      st->resolutions[i].fetch_add(1, std::memory_order_relaxed);
      if (st->resolved.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(st->mu);
        st->cv.notify_all();
      }
    };
    if (traced) {
      // The request span runs from the due time to the completion; the
      // submit span (opened inside `submit`) is its child.
      const std::uint64_t span_id = tracer.next_id();
      SpanContext& ctx = current_span();
      const SpanContext saved = ctx;
      ctx = SpanContext{span_id, span_id};
      Done inner = std::move(done);
      done = [inner = std::move(inner), &tracer, span_id,
              due = due_ns[i]](double prediction, std::exception_ptr error) {
        tracer.record(SpanRecord{"load.request", due, now_ns(), span_id, 0, span_id});
        inner(prediction, std::move(error));
      };
      submit(i, std::move(rows[i]), std::move(done));
      ctx = saved;
    } else {
      submit(i, std::move(rows[i]), std::move(done));
    }
    submit_max_us = std::max(submit_max_us, static_cast<double>(now_ns() - t0) * 1e-3);
  }

  OpenLoopResult res;
  res.sent = n;
  res.late_p99_us = willump::common::percentile(late_us, 99.0);
  res.submit_max_us = submit_max_us;
  {
    std::unique_lock<std::mutex> lock(st->mu);
    res.drained = st->cv.wait_for(
        lock, std::chrono::duration<double>(drain_timeout_s),
        [&] { return st->resolved.load(std::memory_order_acquire) == n; });
  }
  if (!res.drained) return res;

  res.outcome = st->outcome;
  res.prediction = st->prediction;
  res.resolutions.resize(n);
  res.latency_us.assign(n, 0.0);
  std::int64_t last_ns = start_ns;
  for (std::size_t i = 0; i < n; ++i) {
    res.resolutions[i] = st->resolutions[i].load(std::memory_order_relaxed);
    res.latency_us[i] = static_cast<double>(st->done_ns[i] - due_ns[i]) * 1e-3;
    last_ns = std::max(last_ns, st->done_ns[i]);
  }
  res.window_s = static_cast<double>(last_ns - start_ns) * 1e-9;
  return res;
}

}  // namespace perfbench
