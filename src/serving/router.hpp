#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serving/server.hpp"

namespace willump::serving {

/// Shape of a router frontend: how many shard registries it runs and how
/// they are configured.
struct RouterConfig {
  /// Shard registries behind the router (min 1). Each shard is a full
  /// `serving::Server` — its own workers, queues, caches, and scheduler —
  /// so shards are isolation domains: a saturated shard cannot consume
  /// another shard's workers.
  std::size_t num_shards = 2;
  /// Engine config applied to every shard (workers per shard, replica
  /// autoscaling).
  ServerConfig shard;
  /// Virtual nodes per shard on the consistent-hash ring. More vnodes
  /// smooth the placement distribution; the default is ample for the
  /// shard counts a single process hosts.
  std::size_t virtual_nodes = 64;
};

/// Aggregate counters over every shard (see Router::stats()).
struct RouterStats {
  std::size_t shards = 0;
  std::size_t models = 0;
  /// Requests the router routed to a shard (both completion paths).
  std::size_t routed_queries = 0;
  /// Async completions the router forwarded back to client callbacks, and
  /// how many of them delivered an error.
  std::size_t forwarded_completions = 0;
  std::size_t forwarded_errors = 0;
  /// Subset of forwarded_errors that were typed overload rejections
  /// (`RejectedError`: queue-full, shed, predicted-miss, or expired) from
  /// the owning shard — shed load passing back through the router, not
  /// execution failures. Future-path rejections travel inside the future
  /// and are counted by the shard's own ModelStats, not here.
  std::size_t forwarded_rejections = 0;
  /// Sum of the shards' aggregate ServerStats.
  ServerStats serving;
};

/// A process-level serving frontend that shards a model fleet across
/// several independent registries — the horizontal step past one
/// `serving::Server`: one engine's worker pool, queues, and stats mutexes
/// stop scaling at some model count, and one OS process is one fault /
/// upgrade domain. `Router` owns N `Server` shards and places every model
/// on exactly one of them by **consistent hashing** of the model name
/// (a fixed ring of `virtual_nodes` points per shard, FNV-1a hashed, so
/// placement is stable across runs and processes and adding a shard moves
/// only ~1/N of the names).
///
/// The router is a thin, lock-free-on-the-hot-path forwarder: `submit`
/// resolves the model's shard from a placement table frozen at
/// registration time and forwards the request; async completions fire on
/// the owning shard's worker and are **forwarded** through the router's
/// accounting wrapper to the client callback — the client cannot tell
/// which shard served it. Registration (`register_model`, `load_model`,
/// `add_replica`) and rollouts (`swap_model`, `swap_replica`) forward to
/// the placed shard under the same rules as `Server`.
///
/// Thread safety: mirror of `Server` — registration must finish before
/// the first request (std::logic_error afterwards); everything else is
/// safe to call concurrently. `shutdown()` stops every shard and is run
/// by the destructor.
class Router {
 public:
  explicit Router(RouterConfig cfg = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Consistent-hash placement of `model` (pure function of the name and
  /// ring; usable before registration, e.g. to pre-copy artifacts near
  /// their shard).
  std::size_t shard_of(std::string_view model) const;

  std::size_t num_shards() const { return shards_.size(); }
  /// Direct access to one shard registry (e.g. for per-shard stats).
  Server& shard(std::size_t i) { return *shards_.at(i); }
  const Server& shard(std::size_t i) const { return *shards_.at(i); }

  /// Register `pipeline` on the model's consistent-hash shard. Same
  /// contract as Server::register_model (duplicate names rejected
  /// fleet-wide, registration frozen once any shard starts serving).
  void register_model(std::string name, const core::OptimizedPipeline* pipeline,
                      ModelConfig cfg = {});
  void register_model(std::string name,
                      std::shared_ptr<const core::OptimizedPipeline> pipeline,
                      ModelConfig cfg = {});
  /// Cold-start a model from an artifact on its placed shard.
  void load_model(std::string name, const std::string& artifact_path,
                  ModelConfig cfg = {});

  /// Replica-group and rollout operations, forwarded to the owning shard;
  /// same semantics and error contracts as the Server methods. add_replica
  /// and retire_replica are legal under live traffic (runtime resizes);
  /// the per-shard autoscalers (RouterConfig::shard.autoscale, forwarded
  /// into every shard's Server) drive the same paths automatically.
  void add_replica(std::string_view model,
                   std::shared_ptr<const core::OptimizedPipeline> pipeline);
  void add_replica(std::string_view model, const std::string& artifact_path);
  /// Cold-start one replica from the model's registered artifact path
  /// (ModelConfig::artifact_path), falling back to a Parts clone — the
  /// autoscaler's scale-up path, forwarded.
  void add_replica(std::string_view model);
  /// Drain one replica away (see Server::retire_replica).
  void retire_replica(std::string_view model);
  std::size_t replica_count(std::string_view model) const;
  /// Retired replicas of `model` still finishing outstanding work.
  std::size_t draining_replicas(std::string_view model) const;
  void swap_model(std::string_view model, const std::string& artifact_path);
  void swap_model(std::string_view model,
                  std::shared_ptr<const core::OptimizedPipeline> pipeline);
  void swap_replica(std::string_view model, std::size_t replica,
                    const std::string& artifact_path);
  void swap_replica(std::string_view model, std::size_t replica,
                    std::shared_ptr<const core::OptimizedPipeline> pipeline);

  /// Registered model names in registration order (across all shards).
  std::vector<std::string> model_names() const;
  bool has_model(std::string_view model) const;

  /// Route one pointwise query to the model's shard; future-based
  /// completion. Throws std::invalid_argument for an unknown model and
  /// runtime::QueueClosedError after shutdown().
  std::future<double> submit(std::string_view model, data::Batch row);
  /// Async path with a forwarded completion: `done` is invoked on the
  /// owning shard's worker (or inline for cache hits), wrapped so the
  /// router's forwarding counters observe every completion. Must not
  /// throw (same contract as Server::Callback).
  void submit(std::string_view model, data::Batch row, Server::Callback done);

  /// Synchronous conveniences, forwarded to the owning shard.
  std::vector<double> predict_batch(std::string_view model,
                                    const data::Batch& batch);
  std::vector<double> predict_rows(std::string_view model,
                                   const data::Batch& batch);

  /// Predictive replica sizing from the owning shard's online load model
  /// (see Server::recommended_replicas).
  std::size_t recommended_replicas(std::string_view model) const;

  /// Per-model counters from the owning shard.
  ModelStats stats(std::string_view model) const;
  /// Fleet aggregate plus router-level forwarding counters.
  RouterStats stats() const;
  void reset_stats();

  /// Stop every shard: close queues, drain accepted work, join workers.
  /// Idempotent; also run by the destructor.
  void shutdown();

 private:
  Server& owner(std::string_view model) const;
  /// Freeze the placement table on the first routed request (publishes
  /// routed_ under placement_mu_ so lock-free lookups are safe).
  void freeze_routing();

  RouterConfig cfg_;
  std::vector<std::unique_ptr<Server>> shards_;
  /// Consistent-hash ring: (point, shard), sorted by point.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
  /// Placement table frozen at registration: model -> shard. Reads on the
  /// request path take no lock (same freeze discipline as Server's name
  /// table) and no per-request std::string (transparent NameHash).
  mutable std::mutex placement_mu_;
  std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>
      placement_;
  std::vector<std::string> names_;  // registration order
  std::atomic<bool> routed_{false};  // set by the first submit

  mutable std::atomic<std::size_t> routed_queries_{0};
  mutable std::atomic<std::size_t> forwarded_completions_{0};
  mutable std::atomic<std::size_t> forwarded_errors_{0};
  mutable std::atomic<std::size_t> forwarded_rejections_{0};
};

}  // namespace willump::serving
