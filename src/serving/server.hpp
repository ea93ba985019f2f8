#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "core/optimizer.hpp"
#include "runtime/request_queue.hpp"
#include "serving/aimd.hpp"
#include "serving/autoscaler.hpp"
#include "serving/e2e_cache.hpp"
#include "serving/load_control.hpp"
#include "serving/slo.hpp"

namespace willump::serving {

/// Heterogeneous string hashing for the name tables of the serving layer:
/// lookups by std::string_view materialize no per-request std::string on
/// the submit hot paths (Server's registry and Router's placement table).
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Per-model policy of a registry entry: its SLO class, queue bound,
/// batching policy (fixed cap or AIMD-tuned), end-to-end cache, and
/// replica count.
///
/// A ModelConfig is copied at registration; later mutation of the caller's
/// copy has no effect on the registered model.
struct ModelConfig {
  /// Latency objective + scheduling class (see slo.hpp). Drives the
  /// workers' cross-model dequeue order and, when `aimd.slo_micros` is 0,
  /// the derived AIMD batch-latency target.
  /// `deadline_micros` must be positive (registration rejects otherwise).
  SloClass slo;
  /// Batch cap the adaptive micro-batching starts from. With AIMD enabled
  /// this is only the initial value; otherwise it is the fixed cap.
  std::size_t max_batch = 16;
  /// Flush a partially filled batch once this much time has elapsed since
  /// its first query was accepted. 0 = drain-only (no added idle latency).
  double max_delay_micros = 0.0;
  /// Per-model request-queue bound; 0 = unbounded. Submits against a full
  /// queue never block: they wait at most `load_control.submit_wait_micros`
  /// for space, then resolve the request with a typed kQueueFull rejection
  /// through its future/callback (see serving/load_control.hpp).
  std::size_t queue_capacity = 0;
  /// Clipper-style end-to-end prediction cache, checked before enqueue.
  bool enable_e2e_cache = false;
  std::size_t e2e_cache_capacity = 0;
  /// Initial replica-group size: how many execution slots the model starts
  /// with, all sharing the registered pipeline (min 1). Each replica runs
  /// one batch at a time — the Clipper model-container execution model —
  /// so N replicas admit N concurrent batch executions. add_replica()
  /// appends further replicas (at any point in the serving lifecycle) and
  /// retire_replica() drains one away; the autoscaler drives both when
  /// ServerConfig::autoscale is enabled.
  ///
  /// NOTE: this bounds the model's execution concurrency. The default of
  /// 1 serializes the model's queued batches even under many workers
  /// (larger batches coalesce while the slot is busy — usually the higher
  /// throughput regime); a model that wants N-way concurrent pipeline
  /// execution of *queued* traffic sets `replicas` (e.g. to num_workers).
  /// The synchronous predict_batch path is not gated by the slots.
  std::size_t replicas = 1;
  /// Artifact this model can cold-start additional replicas from:
  /// `add_replica(model)` — the autoscaler's scale-up path — deserializes
  /// this artifact, and falls back to cloning the live pipeline's Parts
  /// when empty. load_model() fills it with the path it loaded from when
  /// the caller left it empty.
  std::string artifact_path;
  /// Online AIMD tuning of `max_batch` (Clipper's controller). Disabled by
  /// default: the cap stays fixed.
  AimdConfig aimd;
  /// Statistical load control: admission (predicted-miss + best-effort
  /// shedding), the workers' expired-request drop, and the bounded submit
  /// wait on a full queue. Estimators always run (recommended_replicas
  /// works regardless); decisions require `load_control.enabled`.
  LoadControlConfig load_control;
};

/// Engine-wide threading policy of the serving registry.
struct ServerConfig {
  /// Worker threads shared by all registered models. Any worker serves
  /// any model; worker i's home — the queue it parks on when nothing is
  /// schedulable — is the (i mod models)-th registered model. 0 =
  /// synchronous-only: no threads are spawned and submit() executes inline
  /// on the caller (no coalescing) — the right mode for a batch-at-a-time
  /// frontend embedding the engine.
  std::size_t num_workers = 1;
  /// Background replica autoscaling (serving/autoscaler.hpp): when enabled,
  /// start_serving() spawns a controller thread that periodically evaluates
  /// every model's LoadController snapshot through an AutoscalePolicy and
  /// grows (add_replica from ModelConfig::artifact_path or a Parts clone)
  /// or shrinks (retire_replica, drain-then-free) its group. Requires
  /// num_workers > 0 — the synchronous-only mode has no background threads
  /// by contract, and inline callers gain nothing from extra slots.
  AutoscaleConfig autoscale;
};

/// Per-model serving counters (snapshot; see Server::stats(model)).
struct ModelStats {
  std::string model;
  std::size_t queries = 0;       // pointwise queries offered via submit()
  std::size_t cache_hits = 0;    // answered from the e2e cache, never enqueued
  std::size_t batches = 0;       // pipeline executions (coalesced or client batches)
  std::size_t rows = 0;          // rows through the pipeline
  std::size_t largest_batch = 0; // biggest single pipeline execution
  std::size_t stolen_batches = 0;  // batches run by a worker homed elsewhere
  double inference_seconds = 0.0;
  common::Summary latency;       // submit()-to-completion seconds per query
  std::size_t latency_samples = 0;
  /// Queries completed within the model's SLO-class deadline (of those
  /// with a recorded latency; cache hits count as within-deadline).
  std::size_t deadline_hits = 0;
  /// Per-outcome rows of the overload pipeline (admission → shed →
  /// expire; see serving/load_control.hpp). Every offered query lands in
  /// exactly one outcome: a completion with a prediction (`completions`,
  /// cached or executed — the cached path increments the same row, so
  /// attainment() denominators stay consistent across both), an expiry
  /// drop, one of the typed sheds, or an execution error.
  std::size_t completions = 0;
  std::size_t expired = 0;             // kExpired drops (counted as misses)
  std::size_t shed_queue_full = 0;     // kQueueFull rejections
  std::size_t shed_best_effort = 0;    // kShedBestEffort rejections
  std::size_t shed_predicted_miss = 0; // kPredictedMiss rejections
  /// AIMD controller state: the live cap and how it got there.
  std::size_t current_max_batch = 0;
  std::size_t aimd_increases = 0;
  std::size_t aimd_backoffs = 0;
  /// Replica group: live slot count and rows executed per slot (least-
  /// outstanding balancing should spread saturating load across slots).
  /// `replica_rows` is indexed by all-time slot index — retired slots keep
  /// their row totals — so it can be longer than `replicas`.
  std::size_t replicas = 0;
  std::vector<std::size_t> replica_rows;
  /// Resize counters: replicas added / retired after serving started
  /// (operator- or autoscaler-driven), and how many retired replicas are
  /// still draining (falls to 0 once their outstanding work completes).
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
  std::size_t draining = 0;

  double mean_batch_rows() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(rows) / static_cast<double>(batches);
  }
  /// Fraction of completed queries that met the class deadline.
  double deadline_attainment() const {
    return latency_samples == 0 ? 0.0
                                : static_cast<double>(deadline_hits) /
                                      static_cast<double>(latency_samples);
  }
  /// Outcome-row attainment: hits over everything that reached a terminal
  /// deadline verdict — completions (cached or executed) plus expiry
  /// drops, each of which is a miss counted exactly once. Typed admission
  /// sheds are excluded: a request the engine refused to run was never
  /// given a deadline to meet.
  double attainment() const {
    const std::size_t den = completions + expired;
    return den == 0 ? 0.0
                    : static_cast<double>(deadline_hits) /
                          static_cast<double>(den);
  }
  std::size_t total_shed() const {
    return shed_queue_full + shed_best_effort + shed_predicted_miss;
  }
};

/// Aggregate serving counters over every registered model.
struct ServerStats {
  std::size_t models = 0;
  std::size_t queries = 0;
  std::size_t cache_hits = 0;
  std::size_t batches = 0;
  std::size_t rows = 0;
  std::size_t largest_batch = 0;
  std::size_t stolen_batches = 0;
  double inference_seconds = 0.0;
  common::Summary latency;
  std::size_t latency_samples = 0;
  std::size_t deadline_hits = 0;
  /// Fleet totals of the overload outcome rows (see ModelStats).
  std::size_t completions = 0;
  std::size_t expired = 0;
  std::size_t shed = 0;  // all typed admission rejections
  /// Fleet totals of the resize counters (see ModelStats): replicas added /
  /// retired at runtime and retired replicas still draining.
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
  std::size_t draining = 0;

  double mean_batch_rows() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(rows) / static_cast<double>(batches);
  }
};

/// A multi-model, SLO-aware request-level serving engine: the registry
/// frontend the paper's Table 6 deployment (Willump behind Clipper)
/// presupposes, grown to production scheduling semantics.
///
/// `Server` hosts N named models. Each registered model owns:
///
/// - an **SLO class** (`SloClass`: per-query deadline + priority) that
///   orders the cross-model dequeue — workers serve the highest-priority
///   queue first, breaking ties by earliest absolute head deadline
///   (accept time + deadline), so a latency-critical model is never stuck
///   behind a saturating batch model's backlog;
/// - a **replica group**: one or more execution slots behind the model's
///   name. A replica runs one batch at a time (the Clipper model-container
///   execution model); batches are balanced over replicas by
///   least-outstanding-requests, so N replicas give N-way concurrent
///   execution and each replica is independently hot-swappable
///   (`swap_replica`) and cold-startable from an artifact (`add_replica`).
///   The group is **runtime-mutable**: `add_replica` grows it under live
///   traffic and `retire_replica` shrinks it by draining — the retired
///   slot stops receiving batches immediately and is freed only after its
///   outstanding work completes, so no request is dropped or resolved
///   twice. With `ServerConfig::autoscale` enabled a background controller
///   (serving/autoscaler.hpp) drives both from predicted attainment;
/// - a bounded MPMC `runtime::RequestQueue`, a batching policy whose
///   `max_batch` can be tuned online by an AIMD controller whose
///   batch-latency target derives from the class deadline (Clipper,
///   NSDI 2017 §4.3), and an optional end-to-end prediction cache
///   consulted before enqueue.
///
/// Completion is delivered either through a `std::future` or — the
/// open-loop-friendly async path — through a callback invoked on the worker
/// that executed the batch. Every submitted request resolves exactly once:
/// a prediction, a typed overload rejection (`RejectedError`; see
/// serving/load_control.hpp), or an expiry. Shutdown closes the queues to
/// new work but drains accepted requests first. By default deadlines are
/// objectives, not admission control: a request that misses its deadline
/// still completes (and is counted in `ModelStats::deadline_hits`'
/// complement). With `LoadControlConfig::enabled` the engine turns them
/// into operational decisions — admission control sheds requests that are
/// statistically predicted to miss (best-effort classes first), and
/// workers drop dead-on-arrival requests instead of wasting a replica slot
/// on them. Submits never block on a full queue in either mode.
///
/// Thread safety: every public method is safe to call concurrently once
/// serving has started, except the registration family (`register_model`,
/// `load_model`), which must finish before the first request and throws
/// std::logic_error afterwards. `swap_model` / `swap_replica` /
/// `add_replica` / `retire_replica` are safe at any point in the serving
/// lifecycle — the replica group is published RCU-style (workers take a
/// per-batch snapshot of an immutable group vector), so resizes never
/// invalidate an in-flight batch.
class Server {
 public:
  /// Completion callback of the async path: exactly one of `prediction`
  /// (with `error == nullptr`) or `error` is meaningful. Invoked on a
  /// worker thread (or inline on the caller for cache hits and the
  /// synchronous-only mode); must not throw — escaped exceptions are
  /// swallowed to protect the workers.
  using Callback = std::function<void(double prediction, std::exception_ptr error)>;

  /// An empty registry; call register_model() before submitting.
  explicit Server(ServerConfig cfg = {});

  /// Single-model convenience: registers `pipeline` under the name
  /// "default" with `model_cfg` and starts serving immediately.
  Server(const core::OptimizedPipeline* pipeline, ServerConfig cfg,
         ModelConfig model_cfg = {});

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register a named pipeline. Throws std::invalid_argument on a duplicate
  /// name, a null pipeline, or a non-positive SLO deadline, and
  /// std::logic_error once serving has started (first submit) or after
  /// shutdown. The borrowed pointer must outlive the server.
  void register_model(std::string name, const core::OptimizedPipeline* pipeline,
                      ModelConfig cfg = {});

  /// Owning registration: the registry keeps the pipeline alive. This is
  /// what load_model/swap_model use internally.
  void register_model(std::string name,
                      std::shared_ptr<const core::OptimizedPipeline> pipeline,
                      ModelConfig cfg = {});

  /// Cold-start path: deserialize a trained pipeline artifact
  /// (serialize::load_pipeline) and register it under `name`. Same
  /// registration rules as register_model; artifact failures surface as
  /// serialize::SerializeError and leave the registry untouched.
  void load_model(std::string name, const std::string& artifact_path,
                  ModelConfig cfg = {});

  /// Append one replica to `model`'s group, serving the given pipeline
  /// instance — legal at any point in the serving lifecycle (the group is
  /// published RCU-style; in-flight batches are untouched). Throws
  /// std::invalid_argument for an unknown model or null pipeline and
  /// std::logic_error after shutdown. Replicas share the model's queue,
  /// cache, batching policy, and counters; batches are balanced across
  /// them by least outstanding requests. Post-start additions count in
  /// ModelStats::scale_ups.
  void add_replica(std::string_view model,
                   std::shared_ptr<const core::OptimizedPipeline> pipeline);
  /// Cold-start replica: deserialize `artifact_path` and append it. A
  /// corrupt artifact throws serialize::SerializeError and leaves the
  /// group unchanged.
  void add_replica(std::string_view model, const std::string& artifact_path);
  /// The autoscaler's scale-up path: cold-start one replica from the
  /// model's registered `ModelConfig::artifact_path`, or — when no
  /// artifact is registered — clone the live pipeline's Parts (sharing the
  /// fitted state, owning fresh runtime state).
  void add_replica(std::string_view model);

  /// Retire one replica (the newest slot) from `model`'s group: mark it
  /// draining, unpublish it so no further batch routes to it, and free it
  /// once its outstanding work completes — zero dropped or double-resolved
  /// requests. Throws std::logic_error when the group holds a single
  /// replica (a group never drains to zero). Counts in
  /// ModelStats::scale_downs; the slot appears in ModelStats::draining
  /// until its last in-flight batch finishes.
  void retire_replica(std::string_view model);

  /// Live (routable) replicas of `model`.
  std::size_t replica_count(std::string_view model) const;
  /// Retired replicas still finishing outstanding work (0 once drained).
  std::size_t draining_replicas(std::string_view model) const;

  /// One coherent snapshot of the model's online load estimators — the
  /// autoscaler's (and a test's) window into the LoadController.
  LoadSnapshot load_snapshot(std::string_view model) const;

  /// Hot-reload every replica of `model` to one pipeline (a full rollout),
  /// at any point in the serving lifecycle. In-flight batches finish on
  /// the pipeline version they started with (each batch holds a snapshot);
  /// batches picked up afterwards run the new one — no request is dropped.
  /// The model's end-to-end cache is invalidated (its entries were the old
  /// version's predictions). Queue, batching policy, AIMD state, and
  /// counters carry over.
  void swap_model(std::string_view model, const std::string& artifact_path);
  void swap_model(std::string_view model,
                  std::shared_ptr<const core::OptimizedPipeline> pipeline);

  /// Hot-reload a single replica (a rolling rollout: swap replicas one at
  /// a time while the rest keep serving). Throws std::invalid_argument for
  /// an unknown model or a replica index out of range. The model's e2e
  /// cache is invalidated — during a rolling upgrade two versions serve
  /// side by side, so version-tagged cached predictions cannot be reused.
  void swap_replica(std::string_view model, std::size_t replica,
                    const std::string& artifact_path);
  void swap_replica(std::string_view model, std::size_t replica,
                    std::shared_ptr<const core::OptimizedPipeline> pipeline);

  /// Registered model names, in registration order.
  std::vector<std::string> model_names() const;
  bool has_model(std::string_view model) const;

  /// Submit one pointwise query (a single-row batch) to `model`. Returns a
  /// future for its prediction. Never blocks on a full queue: after at most
  /// `LoadControlConfig::submit_wait_micros`, the future delivers a typed
  /// `RejectedError{kQueueFull}` instead (overload rejections — including
  /// kShedBestEffort / kPredictedMiss / kExpired — always arrive through
  /// the future, not as exceptions from this call). Throws
  /// std::invalid_argument for an unknown model and
  /// runtime::QueueClosedError after shutdown().
  std::future<double> submit(std::string_view model, data::Batch row);

  /// Async completion path: like submit(model, row) but delivers the
  /// prediction (or error) through `done` instead of a future, so an
  /// open-loop driver needs no thread or future per in-flight request.
  void submit(std::string_view model, data::Batch row, Callback done);

  /// Synchronous pre-batched entry: run a whole client batch through the
  /// model's e2e cache and pipeline on the calling thread. This is the path
  /// a batch-at-a-time frontend (ClipperSim) uses; it shares the cache and
  /// accounting with submit() but bypasses the queue — and the replica
  /// capacity gate: it snapshots the least-loaded replica's pipeline and
  /// runs concurrently with queued batches — so the client's batch
  /// composition is preserved exactly.
  std::vector<double> predict_batch(std::string_view model,
                                    const data::Batch& batch);

  /// Submit every row of `batch` as pointwise queries to `model` and wait
  /// for all of them (closed-loop convenience; rows coalesce with any other
  /// queued traffic).
  std::vector<double> predict_rows(std::string_view model,
                                   const data::Batch& batch);

  /// Single-model conveniences: route to the first registered model (the
  /// one the single-model constructor registers as "default").
  std::future<double> submit(data::Batch row);
  void submit(data::Batch row, Callback done);
  std::vector<double> predict_batch(const data::Batch& batch);
  std::vector<double> predict_rows(const data::Batch& batch);

  /// Stop accepting queries, drain everything accepted, join the workers.
  /// Idempotent; also run by the destructor.
  void shutdown();

  ModelStats stats(std::string_view model) const;
  ServerStats stats() const;
  void reset_stats();

  /// The live (possibly AIMD-tuned) batch cap of `model`.
  std::size_t current_max_batch(std::string_view model) const;

  /// Predictive replica sizing: the smallest replica count whose
  /// steady-state predicted attainment passes the 95%-CI criterion against
  /// the model's `LoadControlConfig::target_attainment`, from the online
  /// EWMA service-time/arrival-rate model (see LoadController). Returns
  /// the current replica count while the estimators are cold. Advisory:
  /// an operator reads this and acts via add_replica/retire_replica; the
  /// background autoscaler applies the same model's CI bounds with
  /// hysteresis instead of this point recommendation.
  std::size_t recommended_replicas(std::string_view model) const;

  EndToEndCache& cache(std::string_view model);
  EndToEndCache& cache();  // first registered model
  /// The model's live pipeline (replica 0). With concurrent swaps prefer
  /// pipeline_snapshot(): the reference returned here is only safe while no
  /// swap retires the pipeline it points at.
  const core::OptimizedPipeline& pipeline(std::string_view model) const;
  /// Shared ownership of a replica's current pipeline (stable across
  /// swaps). The default reads replica 0.
  std::shared_ptr<const core::OptimizedPipeline> pipeline_snapshot(
      std::string_view model, std::size_t replica = 0) const;
  const ServerConfig& config() const { return cfg_; }

 private:
  struct Request {
    data::Batch row;
    std::promise<double> promise;  // used when `done` is empty
    Callback done;                 // async path when non-empty
    std::uint64_t cache_key = 0;
    std::chrono::steady_clock::time_point accepted;
  };

  /// One execution slot of a model's replica group. The pipeline pointer
  /// is swappable at runtime (hot-reload): workers take a snapshot per
  /// batch under pipeline_mu — a mutex-guarded shared_ptr copy,
  /// microseconds against a milliseconds-scale inference — so a swap never
  /// frees a pipeline mid-predict. exec_mu serializes batch execution on
  /// the slot (one batch at a time per replica); inflight_rows is the
  /// least-outstanding balancing signal. `draining` is the retire-on-drain
  /// flag: a draining replica takes no new batches (acquire and the sync
  /// path skip it) and is destroyed — via shared_ptr refcount — when the
  /// last group snapshot or in-flight batch holding it lets go.
  struct Replica {
    std::size_t index = 0;  // all-time slot index (replica_rows key)
    std::shared_ptr<const core::OptimizedPipeline> pipeline;
    mutable std::mutex pipeline_mu;
    std::mutex exec_mu;
    std::atomic<std::size_t> inflight_rows{0};
    std::atomic<bool> draining{false};

    Replica(std::size_t i, std::shared_ptr<const core::OptimizedPipeline> p)
        : index(i), pipeline(std::move(p)) {}

    std::shared_ptr<const core::OptimizedPipeline> snapshot() const {
      std::lock_guard<std::mutex> lock(pipeline_mu);
      return pipeline;
    }
  };

  /// An immutable published generation of a model's replica group. Resizes
  /// never mutate a published vector: add/retire build a new vector and
  /// swap the pointer under group_mu (RCU-style), so a worker's per-batch
  /// group snapshot stays valid — and keeps every replica in it alive —
  /// for as long as the worker holds it.
  using ReplicaGroup = std::vector<std::shared_ptr<Replica>>;

  struct ModelEntry {
    std::string name;
    ModelConfig cfg;
    /// Published replica group (see ReplicaGroup); read via
    /// snapshot_group(), swapped by add_replica/retire_replica under
    /// group_mu. Never empty.
    std::shared_ptr<const ReplicaGroup> group;
    mutable std::mutex group_mu;
    /// Lock-free mirror of group->size() for the scheduler's hot paths
    /// (capacity gate, admission, pressure scan).
    std::atomic<std::size_t> live_replicas{0};
    /// All-time slot counter: replica indices grow monotonically so
    /// replica_rows rows are never reused across retire/add. Under
    /// group_mu.
    std::size_t next_replica_index = 0;
    /// Retired replicas still referenced by in-flight work; weak_ptrs so
    /// drain completion is observable (they expire when the last batch
    /// reference drops). Pruned on read, under group_mu.
    mutable std::vector<std::weak_ptr<Replica>> drain_list;
    /// Replicas currently executing a batch; the scheduler's capacity
    /// gate (a model with every replica busy is skipped, not blocked on).
    std::atomic<std::size_t> busy_replicas{0};
    /// Rotates the replica scan start so equally idle replicas share work
    /// round-robin instead of slot 0 taking everything.
    std::atomic<std::uint64_t> replica_ticket{0};
    /// Pipeline version counter, bumped by every swap (full or rolling).
    /// E2e cache keys are salted with the generation observed at submit
    /// time, so an in-flight batch that started on a retired version
    /// writes its predictions into that version's (now unreachable) key
    /// space instead of re-polluting the cache after the swap's clear().
    std::atomic<std::uint64_t> generation{0};
    EndToEndCache cache;
    runtime::RequestQueue<Request> queue;
    AimdBatchController aimd;
    /// Online latency/queue model behind admission control and
    /// recommended_replicas. Always fed (estimates are cheap); decisions
    /// gated by cfg.load_control.enabled.
    LoadController load;

    mutable std::mutex stats_mu;
    std::size_t queries = 0;
    std::size_t cache_hits = 0;
    std::size_t batches = 0;
    std::size_t rows = 0;
    std::size_t largest_batch = 0;
    std::size_t stolen_batches = 0;
    std::size_t deadline_hits = 0;
    /// Overload outcome rows (see ModelStats): every offered query ends in
    /// exactly one of completion / expiry / typed shed / error.
    std::size_t completions = 0;
    std::size_t expired = 0;
    std::size_t shed_queue_full = 0;
    std::size_t shed_best_effort = 0;
    std::size_t shed_predicted_miss = 0;
    /// Post-start resizes of the replica group (operator or autoscaler).
    std::size_t scale_ups = 0;
    std::size_t scale_downs = 0;
    double inference_seconds = 0.0;
    /// Rows executed per all-time slot index (grow-only; retired slots
    /// keep their totals).
    std::vector<std::size_t> replica_rows;
    common::LatencyRecorder latencies;

    ModelEntry(std::string model_name,
               std::shared_ptr<const core::OptimizedPipeline> p, ModelConfig c);

    std::chrono::steady_clock::duration deadline_duration() const;
    /// The current group generation (a mutex-guarded shared_ptr copy —
    /// same idiom and cost as Replica::snapshot()).
    std::shared_ptr<const ReplicaGroup> snapshot_group() const;
    /// Unexpired drain_list entries (prunes expired ones in place).
    std::size_t draining_count() const;
  };

  /// Lookup that throws std::invalid_argument for unknown names. The
  /// registry is append-only and frozen once serving starts, so lookups
  /// from serving threads need no lock (see start_serving).
  ModelEntry& find_model(std::string_view model) const;
  ModelEntry& first_model() const;

  /// Spawn the workers on the first request (freezes the registry).
  void start_serving();
  /// Shared enqueue path behind both submit overloads.
  void submit_request(ModelEntry& m, data::Batch row, Callback done,
                      std::promise<double>* inline_promise);
  /// The one scheduler: take the most urgent schedulable queue (see
  /// pick_model_slo); with none, park on the worker's home queue.
  void worker_loop(std::size_t worker_index);
  /// SLO-aware pick: the schedulable model (non-empty queue, free replica)
  /// whose head request is most urgent by (priority, earliest deadline);
  /// nullptr when nothing is schedulable right now.
  ModelEntry* pick_model_slo() const;
  /// Claim an execution slot: the least-outstanding free live replica
  /// (rotating ties; draining replicas are skipped), or — if a racing
  /// worker took the last free slot — a blocking wait on the least-loaded
  /// live one. Returns with exec_mu held; the shared_ptr keeps the replica
  /// alive even if it is retired mid-batch.
  std::shared_ptr<Replica> acquire_replica(ModelEntry& m);
  void release_replica(ModelEntry& m, Replica& rep);
  /// Acquire a replica, coalesce up to the model's live cap starting from
  /// `first` (after the replica is held, so the batch fills with whatever
  /// queued during the wait), execute, and fulfill completions.
  void run_batch(ModelEntry& m, Request first, bool stolen);
  void execute(ModelEntry& m, Replica& rep, std::vector<Request>& reqs,
               bool stolen);
  /// Resolve `req` with a typed overload rejection and bump the matching
  /// shed counter. Never throws into the submit path.
  void reject(ModelEntry& m, Request& req, RejectReason reason);
  /// Complete a dead-on-arrival request with kExpired, counting the miss
  /// exactly once in the attainment accounting.
  void expire(ModelEntry& m, Request& req);
  /// True when any model of a strictly higher SLO class than `m` reports
  /// overload: its AIMD controller is backing off or its load model
  /// statistically predicts missed attainment at steady state. This is
  /// the shed-best-effort-first signal.
  bool higher_class_pressure(const ModelEntry& m) const;
  /// True once shutdown started and every model queue is empty.
  bool drained_after_close() const;
  static void complete(Request& req, double prediction);
  static void complete_error(Request& req, const std::exception_ptr& err);

  const ServerConfig cfg_;

  mutable std::mutex registry_mu_;  // guards registration & start
  std::vector<std::unique_ptr<ModelEntry>> models_;  // registration order
  std::unordered_map<std::string, ModelEntry*, NameHash, std::equal_to<>>
      by_name_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  std::vector<ModelEntry*> shards_;  // worker i's home (parking) model
  std::vector<std::thread> workers_;
  bool joined_ = false;
  std::mutex shutdown_mu_;
  /// Background replica controller (cfg_.autoscale.enabled); created in
  /// start_serving under registry_mu_, stopped first in shutdown.
  std::unique_ptr<Autoscaler> autoscaler_;
};

}  // namespace willump::serving
