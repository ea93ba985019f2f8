#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace willump::runtime {

/// Thrown by serving-layer entry points when work is offered to a queue (or
/// an engine draining one) that has been closed.
class QueueClosedError : public std::runtime_error {
 public:
  QueueClosedError();
};

/// Outcome of a bounded-wait push (see RequestQueue::try_push_for): the
/// admission-control paths need "full" and "closed" distinguished, because
/// a full queue is a typed load-shedding rejection while a closed one is a
/// shutdown error.
enum class PushResult { kPushed, kFull, kClosed };

/// A bounded, blocking, multi-producer/multi-consumer FIFO queue.
///
/// This is the admission-control point of the serving engine: client
/// threads push pointwise requests, worker threads drain them into
/// micro-batches. A bounded capacity turns overload into a bounded-wait
/// try_push_for() whose kFull outcome becomes a typed load-shedding
/// rejection, instead of unbounded memory growth or a producer parked
/// behind a saturated model (the standard serving-frontend design;
/// Clipper, NSDI 2017, batches its request queues the same way).
///
/// close() initiates shutdown: pending and subsequent pushes report
/// kClosed, while pops continue to drain remaining items and return nullopt
/// only once the queue is empty — so no accepted request is ever dropped.
template <typename T>
class RequestQueue {
 public:
  /// capacity 0 = unbounded.
  explicit RequestQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Bounded-wait push — the submit-path primitive of an admission-
  /// controlled engine: wait at most `timeout` for space, never
  /// indefinitely. On kFull or kClosed, `item` is left untouched so the
  /// caller still owns its completion channel (promise/callback) and can
  /// resolve it with a typed rejection instead of silently dropping it. A
  /// zero or negative timeout degrades to a non-blocking try.
  PushResult try_push_for(T& item, std::chrono::steady_clock::duration timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    if (timeout > std::chrono::steady_clock::duration::zero() && !closed_ &&
        full_locked()) {
      not_full_.wait_for(lock, timeout,
                         [this] { return closed_ || !full_locked(); });
    }
    if (closed_) return PushResult::kClosed;
    if (full_locked()) return PushResult::kFull;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return PushResult::kPushed;
  }

  /// Dequeue without blocking; nullopt when empty.
  std::optional<T> try_pop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    return pop_locked(lock);
  }

  /// Apply `f` to the oldest queued item under the queue lock, without
  /// dequeuing it, and return the result; nullopt when empty. This is the
  /// primitive behind priority-aware multi-queue draining: a scheduler
  /// peeks each queue's head (e.g. its accept timestamp) to decide which
  /// queue to drain next, paying one lock and no element move per
  /// candidate. `f` must be cheap and must not re-enter the queue — it
  /// runs with the queue lock held.
  template <typename F>
  auto peek_front(F&& f) const
      -> std::optional<std::invoke_result_t<F&, const T&>> {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    return f(items_.front());
  }

  /// Bulk non-blocking dequeue: move up to `max_items` items into `out`
  /// under a single lock acquisition. Returns how many were taken. This is
  /// the coalescing fast path of an adaptive-batching worker — one lock per
  /// micro-batch instead of one per request — and what lets a multi-queue
  /// engine drain a whole backlog in one sweep.
  std::size_t drain(std::vector<T>& out, std::size_t max_items) {
    std::size_t taken = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (taken < max_items && !items_.empty()) {
        out.push_back(std::move(items_.front()));
        items_.pop_front();
        ++taken;
      }
    }
    if (taken > 0) not_full_.notify_all();
    return taken;
  }

  /// Block until an item is available or `deadline` passes; nullopt on
  /// timeout, or once the queue is closed and drained. A deadline in the
  /// past degrades to try_pop. This is what an adaptive-batching worker
  /// uses to wait out the remainder of a batch's flush window, and what an
  /// idle worker parks in.
  std::optional<T> pop_until(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_until(lock, deadline,
                          [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    return pop_locked(lock);
  }

  /// Close the queue: wake every blocked producer (their pushes fail) and
  /// consumer (their pops drain, then report exhaustion). Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }

  std::size_t capacity() const { return capacity_; }

 private:
  bool full_locked() const {
    return capacity_ != 0 && items_.size() >= capacity_;
  }

  std::optional<T> pop_locked(std::unique_lock<std::mutex>& lock) {
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return out;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace willump::runtime
