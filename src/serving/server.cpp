#include "serving/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "common/timer.hpp"
#include "serialize/artifact.hpp"

namespace willump::serving {

namespace {

constexpr const char* kDefaultModelName = "default";

/// How long an idle worker waits — parked on its home queue's condition
/// variable, or asleep while every queued model is capacity-gated — before
/// re-scanning every queue. A wait, not a spin: an idle engine costs one
/// wakeup per worker per quantum.
constexpr auto kIdleQuantum = std::chrono::microseconds(500);

std::chrono::steady_clock::duration micros_duration(double micros) {
  return std::chrono::microseconds(
      std::max<std::int64_t>(0, static_cast<std::int64_t>(micros)));
}

/// Resolve the 0 = derive-from-deadline convention (see AimdConfig) before
/// the controller is constructed: the batch-latency target defaults to a
/// fraction of the model's per-query deadline.
AimdConfig resolve_aimd(const ModelConfig& cfg) {
  AimdConfig a = cfg.aimd;
  if (a.enabled && a.slo_micros <= 0.0) a.slo_micros = cfg.slo.batch_slo_micros();
  return a;
}

}  // namespace

Server::ModelEntry::ModelEntry(std::string model_name,
                               std::shared_ptr<const core::OptimizedPipeline> p,
                               ModelConfig c)
    : name(std::move(model_name)),
      cfg(c),
      cache(c.e2e_cache_capacity),
      queue(c.queue_capacity),
      aimd(c.max_batch, resolve_aimd(c)),
      load(c.load_control, c.slo.deadline_micros) {
  // The initial replica group shares the registered pipeline instance
  // (execution slots); add_replica() appends slots with their own.
  const std::size_t n = std::max<std::size_t>(1, c.replicas);
  auto g = std::make_shared<ReplicaGroup>();
  g->reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    g->push_back(std::make_shared<Replica>(i, p));
  }
  group = std::move(g);
  live_replicas.store(n, std::memory_order_release);
  next_replica_index = n;
  replica_rows.assign(n, 0);
}

std::shared_ptr<const Server::ReplicaGroup> Server::ModelEntry::snapshot_group()
    const {
  std::lock_guard<std::mutex> lock(group_mu);
  return group;
}

std::size_t Server::ModelEntry::draining_count() const {
  std::lock_guard<std::mutex> lock(group_mu);
  drain_list.erase(std::remove_if(drain_list.begin(), drain_list.end(),
                                  [](const std::weak_ptr<Replica>& w) {
                                    return w.expired();
                                  }),
                   drain_list.end());
  return drain_list.size();
}

std::chrono::steady_clock::duration Server::ModelEntry::deadline_duration()
    const {
  return micros_duration(cfg.slo.deadline_micros);
}

Server::Server(ServerConfig cfg) : cfg_(cfg) {}

Server::Server(const core::OptimizedPipeline* pipeline, ServerConfig cfg,
               ModelConfig model_cfg)
    : cfg_(cfg) {
  register_model(kDefaultModelName, pipeline, model_cfg);
  start_serving();
}

Server::~Server() { shutdown(); }

void Server::register_model(std::string name,
                            const core::OptimizedPipeline* pipeline,
                            ModelConfig cfg) {
  if (pipeline == nullptr) {
    throw std::invalid_argument("Server::register_model: null pipeline");
  }
  // Borrowed registration: alias a no-op deleter so ownership stays with
  // the caller, as it always has for this overload.
  register_model(std::move(name),
                 std::shared_ptr<const core::OptimizedPipeline>(
                     pipeline, [](const core::OptimizedPipeline*) {}),
                 cfg);
}

void Server::register_model(
    std::string name, std::shared_ptr<const core::OptimizedPipeline> pipeline,
    ModelConfig cfg) {
  if (pipeline == nullptr) {
    throw std::invalid_argument("Server::register_model: null pipeline");
  }
  if (cfg.slo.deadline_micros <= 0.0) {
    throw std::invalid_argument("Server::register_model: model \"" + name +
                                "\" has a non-positive SLO deadline");
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  if (stopping_.load(std::memory_order_acquire)) {
    throw std::logic_error(
        "Server::register_model: the engine is shut down");
  }
  if (started_.load(std::memory_order_acquire)) {
    throw std::logic_error(
        "Server::register_model: serving has started; register every model "
        "before the first request");
  }
  if (by_name_.count(name) != 0) {
    throw std::invalid_argument("Server::register_model: duplicate model \"" +
                                name + "\"");
  }
  auto entry = std::make_unique<ModelEntry>(name, std::move(pipeline), cfg);
  by_name_.emplace(entry->name, entry.get());
  models_.push_back(std::move(entry));
}

void Server::load_model(std::string name, const std::string& artifact_path,
                        ModelConfig cfg) {
  // Load before touching the registry: a corrupt artifact throws
  // SerializeError and the registry is exactly as it was.
  auto pipeline = std::make_shared<const core::OptimizedPipeline>(
      serialize::load_pipeline(artifact_path));
  // Remember where this model came from: add_replica(model) — the
  // autoscaler's scale-up — cold-starts further replicas from the same
  // artifact unless the caller registered a different one.
  if (cfg.artifact_path.empty()) cfg.artifact_path = artifact_path;
  register_model(std::move(name), std::move(pipeline), cfg);
}

void Server::add_replica(
    std::string_view model,
    std::shared_ptr<const core::OptimizedPipeline> pipeline) {
  if (pipeline == nullptr) {
    throw std::invalid_argument("Server::add_replica: null pipeline");
  }
  ModelEntry& m = find_model(model);
  if (stopping_.load(std::memory_order_acquire)) {
    throw std::logic_error("Server::add_replica: the engine is shut down");
  }
  // Post-start additions are resizes (the autoscaler's scale-up or an
  // operator grow); pre-start additions just build the initial group.
  const bool resize = started_.load(std::memory_order_acquire);
  {
    // Publish a new group generation: copy, append, swap. In-flight
    // batches keep their old snapshot; the next acquire sees the new slot.
    std::lock_guard<std::mutex> lock(m.group_mu);
    auto next = std::make_shared<ReplicaGroup>(*m.group);
    next->push_back(
        std::make_shared<Replica>(m.next_replica_index++, std::move(pipeline)));
    {
      std::lock_guard<std::mutex> stats_lock(m.stats_mu);
      m.replica_rows.resize(m.next_replica_index, 0);
      if (resize) ++m.scale_ups;
    }
    m.live_replicas.store(next->size(), std::memory_order_release);
    m.group = std::move(next);
  }
}

void Server::add_replica(std::string_view model,
                         const std::string& artifact_path) {
  add_replica(model, std::make_shared<const core::OptimizedPipeline>(
                         serialize::load_pipeline(artifact_path)));
}

void Server::add_replica(std::string_view model) {
  ModelEntry& m = find_model(model);
  if (!m.cfg.artifact_path.empty()) {
    add_replica(model, m.cfg.artifact_path);
    return;
  }
  // No registered artifact: clone the live pipeline's Parts. The clone
  // shares the fitted state (executor, cascade models — the same sharing
  // the intern pool gives artifact loads) and owns fresh runtime state
  // (feature cache, counters).
  const auto live = m.snapshot_group()->front()->snapshot();
  core::OptimizedPipeline::Parts parts;
  parts.executor = live->executor_ptr();
  parts.cascade = live->cascade();
  parts.use_cascades = live->use_cascades();
  parts.topk = live->topk_config();
  parts.feature_cache = live->cache() != nullptr;
  parts.cache_capacity = live->cache_capacity_per_ifv();
  parts.parallel_threads = live->parallel_threads();
  parts.autotune = live->autotune_report();
  add_replica(model, std::make_shared<const core::OptimizedPipeline>(
                         std::move(parts)));
}

void Server::retire_replica(std::string_view model) {
  ModelEntry& m = find_model(model);
  {
    std::lock_guard<std::mutex> lock(m.group_mu);
    if (m.group->size() <= 1) {
      throw std::logic_error("Server::retire_replica: model \"" +
                             std::string(model) +
                             "\" has a single replica; a group never drains "
                             "to zero");
    }
    // Retire the newest slot (LIFO): slot 0 — the originally registered
    // pipeline — serves for the group's lifetime. Mark it draining before
    // publishing the shrunk group, so even a worker holding the old
    // generation stops routing new batches to it; the batch it may be
    // executing right now finishes normally (the worker's shared_ptr keeps
    // it alive), after which the refcount frees it and its drain_list
    // entry expires.
    std::shared_ptr<Replica> victim = m.group->back();
    victim->draining.store(true, std::memory_order_release);
    auto next = std::make_shared<ReplicaGroup>(m.group->begin(),
                                               m.group->end() - 1);
    m.live_replicas.store(next->size(), std::memory_order_release);
    m.group = std::move(next);
    m.drain_list.emplace_back(victim);
  }
  std::lock_guard<std::mutex> stats_lock(m.stats_mu);
  ++m.scale_downs;
}

std::size_t Server::replica_count(std::string_view model) const {
  return find_model(model).snapshot_group()->size();
}

std::size_t Server::draining_replicas(std::string_view model) const {
  return find_model(model).draining_count();
}

LoadSnapshot Server::load_snapshot(std::string_view model) const {
  return find_model(model).load.snapshot();
}

void Server::swap_model(std::string_view model,
                        const std::string& artifact_path) {
  swap_model(model, std::make_shared<const core::OptimizedPipeline>(
                        serialize::load_pipeline(artifact_path)));
}

void Server::swap_model(
    std::string_view model,
    std::shared_ptr<const core::OptimizedPipeline> pipeline) {
  if (pipeline == nullptr) {
    throw std::invalid_argument("Server::swap_model: null pipeline");
  }
  ModelEntry& m = find_model(model);
  {
    // One group snapshot covers the rollout; a replica added concurrently
    // with the swap keeps the pipeline it was added with (the caller
    // chooses which version new capacity serves).
    const auto group = m.snapshot_group();
    for (const auto& rep : *group) {
      std::lock_guard<std::mutex> lock(rep->pipeline_mu);
      rep->pipeline = pipeline;
    }
  }
  // Cached predictions belong to the retired pipeline. Bumping the
  // generation retires the old key space (requests already past submit
  // keep their old-generation salt, so their late puts are unreachable,
  // never served as the new version's answers); the clear reclaims the
  // memory behind the retired keys.
  m.generation.fetch_add(1, std::memory_order_release);
  m.cache.clear();
}

void Server::swap_replica(std::string_view model, std::size_t replica,
                          const std::string& artifact_path) {
  swap_replica(model, replica,
               std::make_shared<const core::OptimizedPipeline>(
                   serialize::load_pipeline(artifact_path)));
}

void Server::swap_replica(
    std::string_view model, std::size_t replica,
    std::shared_ptr<const core::OptimizedPipeline> pipeline) {
  if (pipeline == nullptr) {
    throw std::invalid_argument("Server::swap_replica: null pipeline");
  }
  ModelEntry& m = find_model(model);
  {
    // `replica` indexes the current live group (position, not all-time
    // slot index): a rolling rollout walks 0..replica_count()-1.
    const auto group = m.snapshot_group();
    if (replica >= group->size()) {
      throw std::invalid_argument("Server::swap_replica: model \"" +
                                  std::string(model) + "\" has no replica " +
                                  std::to_string(replica));
    }
    std::lock_guard<std::mutex> lock((*group)[replica]->pipeline_mu);
    (*group)[replica]->pipeline = std::move(pipeline);
  }
  // A rolling upgrade serves two versions side by side; cached predictions
  // cannot be attributed to the surviving version, so the whole key space
  // is retired exactly as in a full swap.
  m.generation.fetch_add(1, std::memory_order_release);
  m.cache.clear();
}

std::vector<std::string> Server::model_names() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& m : models_) names.push_back(m->name);
  return names;
}

bool Server::has_model(std::string_view model) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return by_name_.find(model) != by_name_.end();
}

Server::ModelEntry& Server::find_model(std::string_view model) const {
  // Once serving has started the registry is frozen, so lookups from the
  // request path take no lock. Entries are heap-allocated and stable, so a
  // reference obtained under the pre-start lock stays valid regardless of
  // later (rejected) registration attempts.
  auto lookup = [&]() -> ModelEntry* {
    auto it = by_name_.find(model);
    return it == by_name_.end() ? nullptr : it->second;
  };
  ModelEntry* entry = nullptr;
  if (started_.load(std::memory_order_acquire)) {
    entry = lookup();
  } else {
    std::lock_guard<std::mutex> lock(registry_mu_);
    entry = lookup();
  }
  if (entry == nullptr) {
    throw std::invalid_argument("Server: unknown model \"" +
                                std::string(model) + "\"");
  }
  return *entry;
}

Server::ModelEntry& Server::first_model() const {
  if (!started_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(registry_mu_);
    if (models_.empty()) {
      throw std::logic_error("Server: no models registered");
    }
    return *models_.front();
  }
  return *models_.front();
}

void Server::start_serving() {
  if (started_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(registry_mu_);
  if (started_.load(std::memory_order_relaxed)) return;
  // A submit racing shutdown() must not spawn workers after the join ran:
  // they would exit unjoined and ~Server would std::terminate.
  if (stopping_.load(std::memory_order_acquire)) {
    throw runtime::QueueClosedError();
  }
  if (models_.empty()) {
    throw std::logic_error("Server: no models registered");
  }
  // Worker i's home is the (i mod models)-th model: the queue it parks on
  // when nothing is schedulable, so every model wakes some worker on
  // arrival while num_workers >= models.
  shards_.reserve(cfg_.num_workers);
  for (std::size_t i = 0; i < cfg_.num_workers; ++i) {
    shards_.push_back(models_[i % models_.size()].get());
  }
  // Publish the frozen registry before any worker (or lock-free lookup)
  // can observe started_ == true.
  started_.store(true, std::memory_order_release);
  workers_.reserve(cfg_.num_workers);
  for (std::size_t i = 0; i < cfg_.num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  if (cfg_.autoscale.enabled && cfg_.num_workers > 0) {
    // The controller starts only with a worker pool: the synchronous-only
    // mode spawns no background threads by contract.
    autoscaler_ = std::make_unique<Autoscaler>(*this, cfg_.autoscale);
    autoscaler_->start();
  }
}

void Server::shutdown() {
  stopping_.store(true, std::memory_order_release);
  Autoscaler* scaler = nullptr;
  {
    // Close under the registry lock so a racing register_model either
    // observes stopping_ or has its queue closed here. The autoscaler
    // pointer is read under the same lock (start_serving sets it there)
    // but stopped outside it: the controller thread takes registry_mu_
    // through the public API it drives.
    std::lock_guard<std::mutex> lock(registry_mu_);
    scaler = autoscaler_.get();
    for (const auto& m : models_) m->queue.close();
  }
  if (scaler != nullptr) scaler->stop();
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (joined_) return;
  for (auto& w : workers_) w.join();
  joined_ = true;
}

void Server::complete(Request& req, double prediction) {
  if (req.done) {
    try {
      req.done(prediction, nullptr);
    } catch (...) {
      // Completion callbacks must not throw; swallowing here protects the
      // worker (and the other requests of the batch) from a client bug.
    }
  } else {
    req.promise.set_value(prediction);
  }
}

void Server::complete_error(Request& req, const std::exception_ptr& err) {
  if (req.done) {
    try {
      req.done(0.0, err);
    } catch (...) {
    }
  } else {
    req.promise.set_exception(err);
  }
}

std::future<double> Server::submit(std::string_view model, data::Batch row) {
  ModelEntry& m = find_model(model);
  std::promise<double> promise;
  auto future = promise.get_future();
  submit_request(m, std::move(row), Callback{}, &promise);
  return future;
}

void Server::submit(std::string_view model, data::Batch row, Callback done) {
  if (!done) {
    throw std::invalid_argument("Server::submit: empty completion callback");
  }
  ModelEntry& m = find_model(model);
  submit_request(m, std::move(row), std::move(done), nullptr);
}

std::future<double> Server::submit(data::Batch row) {
  ModelEntry& m = first_model();
  std::promise<double> promise;
  auto future = promise.get_future();
  submit_request(m, std::move(row), Callback{}, &promise);
  return future;
}

void Server::submit(data::Batch row, Callback done) {
  if (!done) {
    throw std::invalid_argument("Server::submit: empty completion callback");
  }
  ModelEntry& m = first_model();
  submit_request(m, std::move(row), std::move(done), nullptr);
}

void Server::submit_request(ModelEntry& m, data::Batch row, Callback done,
                            std::promise<double>* inline_promise) {
  if (row.num_rows() != 1) {
    throw std::invalid_argument("Server::submit: expects a single-row batch");
  }
  // Reject before counting or consulting the cache: a rejected request is
  // not a served query. (A close racing past this check is still caught by
  // the failed push below.)
  if (stopping_.load(std::memory_order_acquire)) {
    throw runtime::QueueClosedError();
  }
  start_serving();
  {
    std::lock_guard<std::mutex> lock(m.stats_mu);
    ++m.queries;
  }

  Request req;
  req.accepted = std::chrono::steady_clock::now();
  req.done = std::move(done);
  if (inline_promise != nullptr) req.promise = std::move(*inline_promise);

  if (m.cfg.enable_e2e_cache) {
    req.cache_key = common::hash_combine(
        EndToEndCache::key_of(row), m.generation.load(std::memory_order_acquire));
    if (auto hit = m.cache.get(req.cache_key)) {
      // Answered before enqueue: the whole pipeline is skipped, which is
      // the point of end-to-end caching (paper §4.5).
      {
        std::lock_guard<std::mutex> lock(m.stats_mu);
        ++m.cache_hits;
        // Zero-latency completions meet any deadline — and must land in
        // the same outcome rows as executed completions, so attainment()
        // keeps one denominator across the cached and executed paths.
        ++m.deadline_hits;
        ++m.completions;
        m.latencies.record(0.0);
      }
      complete(req, *hit);
      return;
    }
  }
  req.row = std::move(row);

  // The load model sees every request that will consume execution capacity
  // (cache hits never reach here), so its arrival-rate EWMA reflects the
  // work the replicas actually face.
  m.load.on_arrival(req.accepted);

  // Admission control (admission → shed → expire pipeline, stage one).
  // Rejections resolve the request through its future/callback — submit
  // itself never throws for overload — shedding best-effort classes first.
  if (m.cfg.load_control.enabled) {
    if (m.cfg.slo.is_best_effort() && higher_class_pressure(m)) {
      reject(m, req, RejectReason::kShedBestEffort);
      return;
    }
    if (!m.load.admit(m.queue.size(),
                      m.live_replicas.load(std::memory_order_acquire))) {
      reject(m, req, RejectReason::kPredictedMiss);
      return;
    }
  }

  if (cfg_.num_workers == 0) {
    // Synchronous-only configuration: execute the lone request inline on
    // the caller's thread. No queue, no coalescing; concurrent inline
    // callers serialize per replica like worker batches do.
    std::vector<Request> reqs;
    reqs.push_back(std::move(req));
    const auto rep = acquire_replica(m);
    execute(m, *rep, reqs, /*stolen=*/false);
    release_replica(m, *rep);
    return;
  }

  // Never block the producer against a saturated model: wait at most the
  // configured bound for space, then shed with a typed kQueueFull. The old
  // blocking push() could deadlock a submitting thread forever behind a
  // model whose workers were themselves wedged.
  switch (m.queue.try_push_for(
      req, micros_duration(m.cfg.load_control.submit_wait_micros))) {
    case runtime::PushResult::kPushed:
      return;
    case runtime::PushResult::kClosed:
      throw runtime::QueueClosedError();
    case runtime::PushResult::kFull:
      reject(m, req, RejectReason::kQueueFull);
      return;
  }
}

void Server::reject(ModelEntry& m, Request& req, RejectReason reason) {
  {
    std::lock_guard<std::mutex> lock(m.stats_mu);
    switch (reason) {
      case RejectReason::kQueueFull:
        ++m.shed_queue_full;
        break;
      case RejectReason::kShedBestEffort:
        ++m.shed_best_effort;
        break;
      case RejectReason::kPredictedMiss:
        ++m.shed_predicted_miss;
        break;
      case RejectReason::kExpired:
        // Expiries go through expire(): they carry attainment accounting.
        break;
    }
  }
  complete_error(req, std::make_exception_ptr(RejectedError(m.name, reason)));
}

void Server::expire(ModelEntry& m, Request& req) {
  const auto waited = std::chrono::steady_clock::now() - req.accepted;
  {
    std::lock_guard<std::mutex> lock(m.stats_mu);
    ++m.expired;
    // The miss is counted exactly once, here: the request never reaches
    // execute(), so recording its wait as a (necessarily over-deadline)
    // latency keeps deadline_attainment() honest without double counting.
    m.latencies.record(std::chrono::duration<double>(waited).count());
  }
  complete_error(req, std::make_exception_ptr(
                          RejectedError(m.name, RejectReason::kExpired)));
  // Drop the worker's shared-state reference now rather than when the
  // dequeue loop later overwrites this Request: while the submitter still
  // holds its future, the final release of the state — and of the rethrown
  // exception inside it — then happens on the consumer's thread.
  { auto fulfilled = std::move(req.promise); }
}

bool Server::higher_class_pressure(const ModelEntry& m) const {
  // One pass over the frozen registry: a strictly higher class is "under
  // pressure" when its AIMD controller reports a violation streak (it is
  // backing off, not probing) or its load model statistically predicts
  // missed attainment at steady state. Either signal means capacity that
  // best-effort work would consume is about to be needed.
  for (const auto& other : models_) {
    if (other.get() == &m) continue;
    if (other->cfg.slo.priority <= m.cfg.slo.priority) continue;
    if (other->aimd.under_pressure()) return true;
    if (other->load.overloaded(
            other->live_replicas.load(std::memory_order_acquire))) {
      return true;
    }
  }
  return false;
}

Server::ModelEntry* Server::pick_model_slo() const {
  // One pass over the (frozen) registry: among models with queued work and
  // a free replica, take the one whose head request is most urgent by
  // (class priority, earliest absolute deadline). Peeking each head costs
  // one queue lock and no element move. Models with every replica busy are
  // skipped — not blocked on — so a saturated batch model cannot absorb
  // workers a latency-critical arrival will need; the workers executing
  // its batches re-scan the moment they finish.
  ModelEntry* best = nullptr;
  ScheduleKey best_key;
  for (const auto& m : models_) {
    // busy >= live is conservative during a shrink: a draining replica
    // finishing its last batch still counts busy, so the model is skipped
    // until that batch completes — a transient, never a stall.
    if (m->busy_replicas.load(std::memory_order_acquire) >=
        m->live_replicas.load(std::memory_order_acquire)) {
      continue;
    }
    const auto accepted = m->queue.peek_front(
        [](const Request& r) { return r.accepted; });
    if (!accepted) continue;
    const ScheduleKey key{m->cfg.slo.priority, *accepted + m->deadline_duration()};
    if (best == nullptr || before(key, best_key)) {
      best = m.get();
      best_key = key;
    }
  }
  return best;
}

void Server::worker_loop(std::size_t worker_index) {
  ModelEntry* home = shards_[worker_index];
  for (;;) {
    if (ModelEntry* m = pick_model_slo()) {
      if (auto first = m->queue.try_pop()) {
        run_batch(*m, std::move(*first), m != home);
      }
      // Lost the pop race: the item went to another worker; re-scan.
      continue;
    }
    if (drained_after_close()) return;
    // Nothing schedulable. If the home queue holds work that is only
    // capacity-gated (all home replicas busy), popping it would block this
    // worker on a replica another class may need — sleep a quantum instead
    // and let the executing workers pick the backlog up as their replicas
    // free. (Ditto once the queue is closed, where a CV wait would return
    // immediately and spin.) Otherwise park on the home queue's CV.
    if (!home->queue.empty() || home->queue.closed()) {
      std::this_thread::sleep_for(kIdleQuantum);
      continue;
    }
    const auto wake = std::chrono::steady_clock::now() + kIdleQuantum;
    if (auto first = home->queue.pop_until(wake)) {
      run_batch(*home, std::move(*first), /*stolen=*/false);
    }
  }
}

bool Server::drained_after_close() const {
  if (!stopping_.load(std::memory_order_acquire)) return false;
  for (const auto& m : models_) {
    if (m->queue.size() != 0) return false;
  }
  return true;
}

std::shared_ptr<Server::Replica> Server::acquire_replica(ModelEntry& m) {
  for (;;) {
    // One group snapshot per acquisition (a mutex-guarded shared_ptr copy);
    // the returned replica is kept alive by the caller's shared_ptr even if
    // a concurrent retire unpublishes it mid-batch.
    const auto group = m.snapshot_group();
    const std::size_t n = group->size();
    // Least-outstanding-requests balancing. With one batch at a time per
    // replica, a free slot has no in-flight rows, so "least-outstanding
    // free replica" reduces to "first free non-draining slot in rotated
    // order" — the rotating ticket is what spreads work round-robin over
    // equally idle slots. No allocation on this per-batch hot path beyond
    // the snapshot itself.
    const std::size_t start =
        m.replica_ticket.fetch_add(1, std::memory_order_relaxed) % n;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& cand = (*group)[(start + i) % n];
      if (cand->draining.load(std::memory_order_acquire)) continue;
      if (cand->exec_mu.try_lock()) {
        m.busy_replicas.fetch_add(1, std::memory_order_acq_rel);
        return cand;
      }
    }
    // Every live slot was claimed between the scheduler's capacity check
    // and now (or the caller bypassed the gate: a pop from the home queue
    // or the inline mode): wait on the live slot with the fewest in-flight
    // rows. If every slot of this snapshot began draining meanwhile (a
    // stale generation), re-read the group — the published one always
    // holds a live replica.
    std::shared_ptr<Replica> least;
    for (const auto& rep : *group) {
      if (rep->draining.load(std::memory_order_acquire)) continue;
      if (least == nullptr ||
          rep->inflight_rows.load(std::memory_order_relaxed) <
              least->inflight_rows.load(std::memory_order_relaxed)) {
        least = rep;
      }
    }
    if (least == nullptr) continue;
    least->exec_mu.lock();
    m.busy_replicas.fetch_add(1, std::memory_order_acq_rel);
    return least;
  }
}

void Server::release_replica(ModelEntry& m, Replica& rep) {
  m.busy_replicas.fetch_sub(1, std::memory_order_acq_rel);
  rep.exec_mu.unlock();
}

void Server::run_batch(ModelEntry& m, Request first, bool stolen) {
  const bool drop_expired = m.cfg.load_control.enabled;
  const auto deadline = m.deadline_duration();

  // Expiry drop (admission → shed → expire pipeline, final stage): a
  // dequeued request whose deadline has already passed is completed with
  // kExpired *before* a replica is claimed — under overload, running
  // dead-on-arrival work is exactly the capacity the live requests need.
  // Without load control, deadlines stay pure objectives and the request
  // runs regardless (legacy semantics).
  if (drop_expired) {
    while (std::chrono::steady_clock::now() - first.accepted > deadline) {
      expire(m, first);
      auto next = m.queue.try_pop();
      if (!next) return;
      first = std::move(*next);
    }
  }

  // Claim the execution slot before coalescing: if the group is momentarily
  // saturated, everything that queues while we wait for a replica joins
  // this batch, so the wait buys amortization instead of being dead time.
  const auto rep_ptr = acquire_replica(m);
  Replica& rep = *rep_ptr;

  std::vector<Request> reqs;
  reqs.push_back(std::move(first));

  // Adaptive micro-batching (Clipper policy): coalesce queued queries up to
  // the model's live cap — AIMD-tuned when enabled — or until max_delay has
  // elapsed since the *first* query of this batch was accepted. The bulk
  // drain takes everything already queued in one lock acquisition; the
  // pop_until loop then waits out the remainder of the flush window. With
  // max_delay 0 the deadline is already past and the wait degrades to a
  // non-blocking drain.
  const std::size_t cap = std::max<std::size_t>(1, m.aimd.cap());
  if (reqs.size() < cap) {
    m.queue.drain(reqs, cap - reqs.size());
    const auto deadline =
        reqs.front().accepted + micros_duration(m.cfg.max_delay_micros);
    while (reqs.size() < cap) {
      auto next = m.queue.pop_until(deadline);
      if (!next) break;
      reqs.push_back(std::move(*next));
      if (reqs.size() < cap) m.queue.drain(reqs, cap - reqs.size());
    }
  }
  if (drop_expired) {
    // Requests that expired while queued behind the batch head (or during
    // the replica wait / flush window) are dropped from the coalesced
    // batch the same way, so they never occupy batch rows either.
    const auto now = std::chrono::steady_clock::now();
    std::vector<Request> live;
    live.reserve(reqs.size());
    for (auto& r : reqs) {
      if (now - r.accepted > deadline) {
        expire(m, r);
      } else {
        live.push_back(std::move(r));
      }
    }
    reqs = std::move(live);
    if (reqs.empty()) {
      release_replica(m, rep);
      return;
    }
  }
  execute(m, rep, reqs, stolen);
  release_replica(m, rep);
}

void Server::execute(ModelEntry& m, Replica& rep, std::vector<Request>& reqs,
                     bool stolen) {
  common::Timer timer;
  // Per-worker result buffer, reused across batches: the batch predict path
  // is allocation-free down through the model kernels. Safe across the
  // error-isolation recursion below — the outer frame never reads its preds
  // after re-executing requests one by one.
  thread_local std::vector<double> preds;
  // One snapshot per batch: a concurrent swap cannot retire this pipeline
  // until the batch finishes, and every row of the batch runs on the same
  // pipeline version (of this replica; a rolling upgrade may have other
  // replicas on a newer one).
  const auto pipeline = rep.snapshot();
  rep.inflight_rows.fetch_add(reqs.size(), std::memory_order_relaxed);
  try {
    // Combining inside the try keeps a malformed row (e.g. a schema that
    // does not match the model's) from escaping on the worker thread: the
    // whole batch is failed through its completions instead.
    data::Batch combined = reqs.front().row;
    for (std::size_t i = 1; i < reqs.size(); ++i) {
      combined.append_rows(reqs[i].row);
    }
    preds.resize(combined.num_rows());
    pipeline->predict_into(combined, preds);
  } catch (...) {
    rep.inflight_rows.fetch_sub(reqs.size(), std::memory_order_relaxed);
    if (reqs.size() == 1) {
      complete_error(reqs.front(), std::current_exception());
      return;
    }
    // Isolate the failure: one malformed request must not fail the
    // well-formed queries that happened to coalesce with it. Re-execute
    // each request as its own batch on the already-held replica — only the
    // offending one(s) see the error. Failures are the rare path, so the
    // lost amortization is noise.
    for (auto& r : reqs) {
      std::vector<Request> one;
      one.push_back(std::move(r));
      execute(m, rep, one, stolen);
    }
    return;
  }
  rep.inflight_rows.fetch_sub(reqs.size(), std::memory_order_relaxed);
  const double secs = timer.elapsed_seconds();
  const auto completed = std::chrono::steady_clock::now();

  // Feed the controllers before the next batch is coalesced so the cap —
  // and the admission model's service-time estimate — reflect this batch's
  // observed latency.
  m.aimd.on_batch(reqs.size(), secs);
  m.load.on_batch(reqs.size(), secs);

  // Record stats before fulfilling any completion: a client observing its
  // future ready must also observe the counters for its own batch.
  {
    const auto deadline = m.deadline_duration();
    std::lock_guard<std::mutex> lock(m.stats_mu);
    ++m.batches;
    m.rows += reqs.size();
    m.largest_batch = std::max(m.largest_batch, reqs.size());
    if (stolen) ++m.stolen_batches;
    m.inference_seconds += secs;
    m.replica_rows[rep.index] += reqs.size();
    m.completions += reqs.size();
    for (const auto& r : reqs) {
      const auto waited = completed - r.accepted;
      if (waited <= deadline) ++m.deadline_hits;
      m.latencies.record(std::chrono::duration<double>(waited).count());
    }
  }

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (m.cfg.enable_e2e_cache) {
      m.cache.put(reqs[i].cache_key, preds[i]);
    }
    complete(reqs[i], preds[i]);
  }
}

std::vector<double> Server::predict_batch(std::string_view model,
                                          const data::Batch& batch) {
  ModelEntry& m = find_model(model);
  // The synchronous pre-batched path bypasses the queue and the replica
  // capacity gate (it never blocks behind queued batches); it snapshots
  // the least-loaded live replica's pipeline so a frontend's client
  // batches still spread over the group. The group snapshot keeps the
  // picked slot alive across a concurrent retire.
  const auto group = m.snapshot_group();
  std::shared_ptr<Replica> least;
  {
    // Rotated scan start: the sync path does not mark its own rows
    // in-flight, so without rotation every all-idle tie would fall to
    // slot 0 and concurrent client batches would pile onto one replica.
    const std::size_t n = group->size();
    const std::size_t start =
        m.replica_ticket.fetch_add(1, std::memory_order_relaxed) % n;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& cand = (*group)[(start + i) % n];
      if (cand->draining.load(std::memory_order_acquire)) continue;
      if (least == nullptr ||
          cand->inflight_rows.load(std::memory_order_relaxed) <
              least->inflight_rows.load(std::memory_order_relaxed)) {
        least = cand;
      }
    }
    // Stale snapshot whose every slot is draining: any slot still serves
    // correctly (its pipeline lives until the last reference drops).
    if (least == nullptr) least = (*group)[start];
  }
  const auto pipeline = least->snapshot();  // whole client batch on one version
  const std::size_t n = batch.num_rows();
  std::vector<double> preds(n, 0.0);
  std::size_t batch_hits = 0;
  std::size_t executed_rows = 0;  // rows the pipeline actually saw
  double secs = 0.0;

  if (m.cfg.enable_e2e_cache) {
    const std::uint64_t gen = m.generation.load(std::memory_order_acquire);
    std::vector<std::size_t> missing;
    std::vector<std::uint64_t> keys(n);
    for (std::size_t r = 0; r < n; ++r) {
      const data::Batch row = batch.row(r);
      keys[r] = common::hash_combine(EndToEndCache::key_of(row), gen);
      if (auto hit = m.cache.get(keys[r])) {
        preds[r] = *hit;
        ++batch_hits;
      } else {
        missing.push_back(r);
      }
    }
    if (!missing.empty()) {
      common::Timer timer;
      const auto missing_preds =
          pipeline->predict(batch.select_rows(missing));
      secs = timer.elapsed_seconds();
      executed_rows = missing.size();
      for (std::size_t i = 0; i < missing.size(); ++i) {
        preds[missing[i]] = missing_preds[i];
        m.cache.put(keys[missing[i]], missing_preds[i]);
      }
    }
  } else {
    common::Timer timer;
    preds = pipeline->predict(batch);
    secs = timer.elapsed_seconds();
    executed_rows = n;
  }

  std::lock_guard<std::mutex> lock(m.stats_mu);
  m.queries += n;
  m.cache_hits += batch_hits;
  if (executed_rows > 0) {
    // batches counts pipeline executions; a fully cached call runs none.
    ++m.batches;
    m.rows += executed_rows;
    m.largest_batch = std::max(m.largest_batch, executed_rows);
    m.inference_seconds += secs;
    m.replica_rows[least->index] += executed_rows;
  }
  return preds;
}

std::vector<double> Server::predict_rows(std::string_view model,
                                         const data::Batch& batch) {
  std::vector<std::future<double>> futures;
  futures.reserve(batch.num_rows());
  for (std::size_t r = 0; r < batch.num_rows(); ++r) {
    futures.push_back(submit(model, batch.row(r)));
  }
  std::vector<double> preds;
  preds.reserve(futures.size());
  for (auto& f : futures) preds.push_back(f.get());
  return preds;
}

std::vector<double> Server::predict_batch(const data::Batch& batch) {
  return predict_batch(first_model().name, batch);
}

std::vector<double> Server::predict_rows(const data::Batch& batch) {
  return predict_rows(first_model().name, batch);
}

ModelStats Server::stats(std::string_view model) const {
  const ModelEntry& m = find_model(model);
  ModelStats s;
  const AimdCounters aimd = m.aimd.counters();
  // Group state before stats_mu: lock order is group_mu -> stats_mu
  // everywhere (add_replica nests them that way).
  s.replicas = m.live_replicas.load(std::memory_order_acquire);
  s.draining = m.draining_count();
  std::lock_guard<std::mutex> lock(m.stats_mu);
  s.model = m.name;
  s.queries = m.queries;
  s.cache_hits = m.cache_hits;
  s.batches = m.batches;
  s.rows = m.rows;
  s.largest_batch = m.largest_batch;
  s.stolen_batches = m.stolen_batches;
  s.deadline_hits = m.deadline_hits;
  s.completions = m.completions;
  s.expired = m.expired;
  s.shed_queue_full = m.shed_queue_full;
  s.shed_best_effort = m.shed_best_effort;
  s.shed_predicted_miss = m.shed_predicted_miss;
  s.inference_seconds = m.inference_seconds;
  s.latency = m.latencies.summary();
  s.latency_samples = m.latencies.count();
  s.current_max_batch = aimd.current_max_batch;
  s.aimd_increases = aimd.increases;
  s.aimd_backoffs = aimd.backoffs;
  s.replica_rows = m.replica_rows;
  s.scale_ups = m.scale_ups;
  s.scale_downs = m.scale_downs;
  return s;
}

ServerStats Server::stats() const {
  // Pre-start, the registry can still be mutating: hold the lock for the
  // snapshot. Post-start it is frozen and per-model locks suffice.
  std::unique_lock<std::mutex> registry_lock(registry_mu_, std::defer_lock);
  if (!started_.load(std::memory_order_acquire)) registry_lock.lock();

  ServerStats s;
  common::LatencyRecorder merged;
  s.models = models_.size();
  for (const auto& m : models_) {
    s.draining += m->draining_count();  // group_mu before stats_mu
    std::lock_guard<std::mutex> lock(m->stats_mu);
    s.queries += m->queries;
    s.cache_hits += m->cache_hits;
    s.batches += m->batches;
    s.rows += m->rows;
    s.largest_batch = std::max(s.largest_batch, m->largest_batch);
    s.stolen_batches += m->stolen_batches;
    s.deadline_hits += m->deadline_hits;
    s.completions += m->completions;
    s.expired += m->expired;
    s.shed += m->shed_queue_full + m->shed_best_effort + m->shed_predicted_miss;
    s.scale_ups += m->scale_ups;
    s.scale_downs += m->scale_downs;
    s.inference_seconds += m->inference_seconds;
    merged.merge(m->latencies);
  }
  s.latency = merged.summary();
  s.latency_samples = merged.count();
  return s;
}

void Server::reset_stats() {
  std::unique_lock<std::mutex> registry_lock(registry_mu_, std::defer_lock);
  if (!started_.load(std::memory_order_acquire)) registry_lock.lock();
  for (const auto& m : models_) {
    std::lock_guard<std::mutex> lock(m->stats_mu);
    m->queries = 0;
    m->cache_hits = 0;
    m->batches = 0;
    m->rows = 0;
    m->largest_batch = 0;
    m->stolen_batches = 0;
    m->deadline_hits = 0;
    m->completions = 0;
    m->expired = 0;
    m->shed_queue_full = 0;
    m->shed_best_effort = 0;
    m->shed_predicted_miss = 0;
    m->scale_ups = 0;
    m->scale_downs = 0;
    m->inference_seconds = 0.0;
    std::fill(m->replica_rows.begin(), m->replica_rows.end(), 0);
    m->latencies.clear();
    m->aimd.reset_counters();
  }
}

std::size_t Server::current_max_batch(std::string_view model) const {
  return find_model(model).aimd.cap();
}

std::size_t Server::recommended_replicas(std::string_view model) const {
  ModelEntry& m = find_model(model);
  return m.load.recommended_replicas(
      m.live_replicas.load(std::memory_order_acquire));
}

EndToEndCache& Server::cache(std::string_view model) {
  return find_model(model).cache;
}

EndToEndCache& Server::cache() { return first_model().cache; }

const core::OptimizedPipeline& Server::pipeline(std::string_view model) const {
  return *pipeline_snapshot(model, 0);
}

std::shared_ptr<const core::OptimizedPipeline> Server::pipeline_snapshot(
    std::string_view model, std::size_t replica) const {
  ModelEntry& m = find_model(model);
  const auto group = m.snapshot_group();
  if (replica >= group->size()) {
    throw std::invalid_argument("Server::pipeline_snapshot: model \"" +
                                std::string(model) + "\" has no replica " +
                                std::to_string(replica));
  }
  return (*group)[replica]->snapshot();
}

}  // namespace willump::serving
