#pragma once

#include <chrono>
#include <cstdint>

namespace willump::serving {

/// The latency objective and scheduling class of one registered model.
///
/// Production registries host models with very different obligations: a
/// latency-critical ranker answering an interactive page next to a batch
/// scorer that only cares about throughput. An SLO class captures that
/// contract per model — a per-query completion deadline plus a scheduling
/// priority — and the engine derives everything else from it:
///
/// - **Queue order.** Workers dequeue across models by (priority
///   descending, earliest absolute deadline first); see
///   `Server::pick_model_slo`. The absolute deadline of a queued request
///   is its accept time plus `deadline_micros`, so within one class
///   earliest-deadline-first degrades to FIFO across every model of the
///   class (deadlines are an accept-time offset) and across classes the
///   closest deadline wins ties between equal priorities.
/// - **Batch-latency target.** The AIMD controller tunes the micro-batch
///   cap against a *batch execution* SLO. When `AimdConfig::slo_micros` is
///   left at 0 the engine derives it as `batch_slo_fraction *
///   deadline_micros` (`batch_slo_micros()`): a query's end-to-end budget
///   must cover queueing and coalescing as well as execution, so only a
///   fraction of the deadline is given to the batch itself.
///
/// An `SloClass` is plain data: copying it is cheap, comparing two of them
/// is `before()`. Defaults describe a "standard" interactive model
/// (100 ms deadline, priority 0).
struct SloClass {
  /// Per-query completion objective (submit to completion), microseconds.
  /// Must be positive; `Server::register_model` rejects non-positive
  /// deadlines with std::invalid_argument.
  double deadline_micros = 100'000.0;

  /// Scheduling priority: higher values are dequeued first, strictly — a
  /// queued request of a higher class is always taken before any request
  /// of a lower class (no aging). Ties fall through to
  /// earliest-deadline-first.
  int priority = 0;

  /// Share of the deadline granted to one batch *execution* when the AIMD
  /// batch-latency target is derived (AimdConfig::slo_micros == 0). The
  /// remainder is headroom for queueing, coalescing, and completion
  /// delivery. Clamped to (0, 1] by batch_slo_micros().
  double batch_slo_fraction = 0.5;

  /// The derived AIMD batch-latency target, microseconds (>= 1).
  double batch_slo_micros() const;

  /// Shed ordering under overload: classes with negative priority are
  /// best-effort and are the first the admission controller sheds
  /// (`RejectReason::kShedBestEffort`) when a higher class is under
  /// pressure — before any standard or latency-critical request is put at
  /// risk. See serving/load_control.hpp.
  bool is_best_effort() const { return priority < 0; }

  /// Preset: an interactive model that preempts everything else.
  static SloClass latency_critical(double deadline_micros = 20'000.0);
  /// Preset: the default class (priority 0).
  static SloClass standard(double deadline_micros = 100'000.0);
  /// Preset: a throughput/batch model that yields to every other class.
  static SloClass best_effort(double deadline_micros = 1'000'000.0);
};

/// Dequeue-ordering key of one model's queue head: the class priority plus
/// the head request's absolute deadline (accept time + class deadline).
/// Built by the scheduler from a RequestQueue peek; never stored.
struct ScheduleKey {
  int priority = 0;
  std::chrono::steady_clock::time_point deadline{};
};

/// Strict-weak ordering of schedule keys: higher priority first, then
/// earlier absolute deadline. Returns true when `a` should be served
/// before `b`.
bool before(const ScheduleKey& a, const ScheduleKey& b);

}  // namespace willump::serving
