#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "core/feature_cache.hpp"
#include "core/graph.hpp"
#include "core/ifv_analysis.hpp"
#include "kernels/dispatch.hpp"
#include "runtime/profiler.hpp"
#include "runtime/thread_pool.hpp"

namespace willump::core {

/// Reusable execution state, threaded through every compiled compute entry.
/// The executor rewinds it at each entry, so a scratch kept across requests
/// (one per worker thread, see request_scratch()) makes the steady-state
/// request path perform (almost) zero heap allocations:
///  - `arena`: bump allocator for trivially-destructible op staging
///    (densify buffers, hash staging) — reset per entry, chunks retained;
///  - `store` + `source_bound`: the node store. Values keep their heap
///    capacity across requests; `source_bound` (cleared per entry) marks the
///    sources bound in this entry, so a stale column from the previous batch
///    is never mistaken for a bound one;
///  - `result`: destination matrix of compute_matrix_into, reused in place.
///
/// Not thread-safe. Never share one scratch between concurrent calls.
struct ExecScratch {
  explicit ExecScratch(std::size_t arena_chunk_bytes = 1u << 18)
      : arena(arena_chunk_bytes) {}

  common::Arena arena;
  std::vector<data::Value> store;
  std::vector<std::uint8_t> source_bound;
  std::vector<data::Value> gather_tmp;  // multi-input gather staging
  std::vector<std::size_t> selected;    // plan staging (selected generators)
  data::FeatureMatrix result;

  /// Rewind for a new compute entry over a graph of `graph_size` nodes.
  void begin(std::size_t graph_size) {
    arena.reset();
    if (store.size() != graph_size) {
      store.assign(graph_size, {});
      source_bound.assign(graph_size, 0);
    } else {
      std::fill(source_bound.begin(), source_bound.end(), 0);
    }
  }
};

/// The calling thread's request scratch: one lazily built thread_local
/// instance per thread, so serving workers reuse their state across requests.
ExecScratch& request_scratch();

/// Marshaling/kernel time split of a compiled execution — the analog of the
/// paper's Weld-driver overhead measurement (§6.4, "Weld Drivers").
struct DriverStats {
  double driver_seconds = 0.0;  // input gathering + output placement
  double kernel_seconds = 0.0;  // operator kernels
  std::size_t block_entries = 0;

  double overhead_fraction() const {
    const double total = driver_seconds + kernel_seconds;
    return total > 0.0 ? driver_seconds / total : 0.0;
  }
};

/// Per-call execution options.
struct ExecOptions {
  /// Which feature generators to compute; empty = all. Masked-out
  /// generators produce empty blocks.
  std::vector<bool> fg_mask;
  /// Feature-level caching (§4.5); nullptr disables.
  FeatureCacheBank* cache = nullptr;
  /// Thread pool for per-input parallelization of compiled feature
  /// generators (§4.4); nullptr = sequential.
  runtime::ThreadPool* pool = nullptr;
  /// Per-node timing (cost model input); nullptr disables.
  runtime::Profiler* profiler = nullptr;
  /// Driver/kernel split accounting; nullptr disables.
  DriverStats* drivers = nullptr;
};

/// Common machinery of both execution engines: graph + IFV analysis
/// ownership, block assembly, and layout probing.
class Executor {
 public:
  Executor(Graph graph, IfvAnalysis analysis);
  virtual ~Executor() = default;

  /// Compute the feature block of every selected generator. The result is
  /// indexed by generator; unselected generators yield empty matrices.
  virtual std::vector<data::FeatureMatrix> compute_blocks(
      const data::Batch& batch, const ExecOptions& opts) const = 0;

  /// Concatenate selected blocks in canonical order in one pass (each
  /// element copied once) and apply the post-concatenation commutative
  /// chain. With a partial mask, post-chain ops must be ColumnSliceable
  /// (paper: transforms that "commute with vector concatenation", §5.1).
  data::FeatureMatrix assemble(const std::vector<data::FeatureMatrix>& blocks,
                               const std::vector<bool>& mask) const;

  /// The feature matrix of `batch`, built into `scratch.result` (valid until
  /// the next call with the same scratch). Node values, op staging and the
  /// result keep the previous request's capacity.
  virtual const data::FeatureMatrix& compute_matrix_into(
      const data::Batch& batch, ExecScratch& scratch,
      const ExecOptions& opts = {}) const = 0;

  /// compute_matrix_into over a call-local scratch.
  data::FeatureMatrix compute_matrix(const data::Batch& batch,
                                     const ExecOptions& opts = {}) const;

  /// Execute once on `probe` to record each generator's block width in the
  /// analysis (cascades need the column layout before training models).
  void probe_layout(const data::Batch& probe);

  /// Restore a previously probed column layout (what an artifact recorded)
  /// instead of re-executing a probe batch. Throws std::invalid_argument
  /// when the vectors do not describe this graph's generators.
  void restore_layout(std::vector<std::size_t> block_cols,
                      std::vector<std::size_t> col_begin);

  const Graph& graph() const { return graph_; }
  const IfvAnalysis& analysis() const { return analysis_; }

  /// Per-generator costs (seconds per training run), used for static
  /// assignment of generators to threads (§5.2, Parallelization).
  void set_fg_costs(std::vector<double> costs) { fg_costs_ = std::move(costs); }
  const std::vector<double>& fg_costs() const { return fg_costs_; }

 protected:
  bool fg_selected(const std::vector<bool>& mask, std::size_t f) const {
    return mask.empty() || (f < mask.size() && mask[f]);
  }

  /// assemble into `out`, reusing its storage.
  void assemble_into(const std::vector<data::FeatureMatrix>& blocks,
                     const std::vector<bool>& mask,
                     data::FeatureMatrix& out) const;

  /// Row-chunk size of the dense concat in assemble.
  virtual std::size_t assemble_block_rows() const {
    return kernels::FeatureOpConfig{}.block_rows;
  }

  /// Run the post-concatenation commutative chain over an assembled matrix
  /// (`full` = every generator contributed, so ops see the full layout).
  data::FeatureMatrix apply_post_chain(data::FeatureMatrix m,
                                       const std::vector<bool>& mask,
                                       bool full) const;

  Graph graph_;
  IfvAnalysis analysis_;
  std::vector<double> fg_costs_;
};

/// Reference engine modeling the unoptimized Python baseline: every edge is
/// materialized as boxed per-row objects, compilable operators run
/// row-at-a-time through dictionary-based "frames", and only external-I/O
/// operators (table lookups — the pandas-merge / RPC class) run as batch
/// kernels. See runtime/boxed.hpp for why this is an honest stand-in.
class InterpretedExecutor final : public Executor {
 public:
  InterpretedExecutor(Graph graph, IfvAnalysis analysis)
      : Executor(std::move(graph), std::move(analysis)) {}

  std::vector<data::FeatureMatrix> compute_blocks(
      const data::Batch& batch, const ExecOptions& opts) const override;

  const data::FeatureMatrix& compute_matrix_into(
      const data::Batch& batch, ExecScratch& scratch,
      const ExecOptions& opts = {}) const override;
};

/// One step of a compiled plan: either a single node or a fused chain of
/// element-wise string ops executed in one pass (loop fusion — the Weld
/// optimization the paper leans on, §5.2).
struct PlanStep {
  std::vector<int> nodes;  // >1 => fused string-map chain
  bool fused() const { return nodes.size() > 1; }
};

/// The compiled plan for one graph: sorted node order (non-compilable
/// "Python" nodes hoisted to their earliest allowable position to minimize
/// language transitions, §5.2 Sorting), per-generator fused steps, and
/// preprocessing steps.
struct CompiledPlan {
  std::vector<int> sorted_order;
  int transitions_before = 0;  // language transitions in plain topo order
  int transitions_after = 0;   // after hoisting
  std::vector<PlanStep> preprocessing;
  std::vector<std::vector<PlanStep>> fg_steps;  // per generator
  std::vector<bool> fg_compilable;              // all nodes compilable?
};

/// Build the compiled plan (sorting + fusion stages of §5.2).
CompiledPlan compile_plan(const Graph& g, const IfvAnalysis& a);

/// Count interpreter<->compiled transitions along an execution order.
int count_language_transitions(const Graph& g, const std::vector<int>& order);

/// Optimized engine (the Weld analog): columnar batch kernels, fused
/// string chains, constant-time "drivers", optional feature-level caching
/// and per-input parallel generator execution.
class CompiledExecutor final : public Executor {
 public:
  CompiledExecutor(Graph graph, IfvAnalysis analysis);

  std::vector<data::FeatureMatrix> compute_blocks(
      const data::Batch& batch, const ExecOptions& opts) const override;

  /// When the layout is probed and every selected generator ends in a
  /// DenseBlockWriter, the ops write their column slices straight into
  /// `scratch.result`; a single selected SparseBlockEmitter streams its CSR
  /// rows into it. Every other shape, and cached or pooled execution, is
  /// compute_blocks + assemble. All produce bit-identical matrices.
  const data::FeatureMatrix& compute_matrix_into(
      const data::Batch& batch, ExecScratch& scratch,
      const ExecOptions& opts = {}) const override;

  const CompiledPlan& plan() const { return plan_; }

  /// Tuned feature-op choices (lookup strategy, assembly row-block size,
  /// one-hot shape). Set by the op-level autotuner and by artifact
  /// deserialization; defaults are the untuned reference choices.
  void set_featureop_config(const kernels::FeatureOpConfig& c) { opcfg_ = c; }
  const kernels::FeatureOpConfig& featureop_config() const { return opcfg_; }

 protected:
  std::size_t assemble_block_rows() const override { return opcfg_.block_rows; }

 private:
  /// compute_blocks with the serial path's node store in `scratch`.
  std::vector<data::FeatureMatrix> compute_blocks(const data::Batch& batch,
                                                  const ExecOptions& opts,
                                                  ExecScratch& scratch) const;

  /// Evaluate a step list over `batch` into the scratch's node store.
  void run_steps(std::span<const PlanStep> steps, const data::Batch& batch,
                 ExecScratch& scratch, const ExecOptions& opts) const;

  /// Account one step's driver/kernel time to the profiler and DriverStats.
  static void record_step(int node, double driver_s, double kernel_s,
                          const ExecOptions& opts);

  /// Compute one generator's block with per-row feature caching.
  data::FeatureMatrix compute_block_cached(const data::Batch& batch,
                                           std::size_t f,
                                           const ExecOptions& opts) const;

  /// Plain (uncached) computation of one generator's block given computed
  /// preprocessing values.
  data::FeatureMatrix compute_block_plain(const data::Batch& batch,
                                          std::size_t f, ExecScratch& scratch,
                                          const ExecOptions& opts) const;

  /// Bind source columns and gather a node's operand values from the store
  /// (the run_steps driver stage). The returned span views store slots
  /// directly for single-input nodes (no Value copies); multi-input nodes
  /// stage copies in `scratch.gather_tmp`.
  std::span<const data::Value> gather_inputs(const Node& node,
                                             const data::Batch& batch,
                                             ExecScratch& scratch) const;

  CompiledPlan plan_;
  kernels::FeatureOpConfig opcfg_;
};

}  // namespace willump::core
