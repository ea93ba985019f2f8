#include "core/cost_model.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/timer.hpp"
#include "core/cascades.hpp"
#include "ops/encoders.hpp"
#include "ops/tfidf.hpp"

namespace willump::core {

double IfvStats::total_cost() const {
  return std::accumulate(cost_seconds.begin(), cost_seconds.end(), 0.0);
}

std::vector<double> measure_fg_costs(const Executor& executor,
                                     const data::Batch& train_inputs) {
  runtime::Profiler profiler;
  ExecOptions opts;
  opts.profiler = &profiler;
  (void)executor.compute_blocks(train_inputs, opts);

  const auto& analysis = executor.analysis();
  std::vector<double> costs(analysis.generators.size(), 0.0);
  for (std::size_t f = 0; f < analysis.generators.size(); ++f) {
    double acc = 0.0;
    for (int node : analysis.generators[f].nodes) {
      acc += profiler.total_seconds(node);
    }
    // Floor at a small epsilon so cost-effectiveness ratios stay finite.
    costs[f] = std::max(acc, 1e-9);
  }
  return costs;
}

namespace {

/// One candidate measurement: a warmup run (faults scratch pages, resolves
/// dispatch) then the median of `reps` timed batch predicts.
double time_predict_into(const models::Model& m, const data::FeatureMatrix& x,
                         std::span<double> out, int reps) {
  m.predict_into(x, out);
  return common::time_median_seconds(reps,
                                     [&m, &x, out] { m.predict_into(x, out); });
}

/// One feature-pipeline measurement: warmup then the median of `reps`
/// compute_matrix runs (the quantity op-level choices change).
double time_compute_matrix(const Executor& e, const data::Batch& b, int reps) {
  (void)e.compute_matrix(b);
  return common::time_median_seconds(reps, [&e, &b] { (void)e.compute_matrix(b); });
}

bool graph_has_tfidf(const Graph& g) {
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto* op = g.node(static_cast<int>(i)).op.get();
    if (dynamic_cast<const ops::TfIdfOp*>(op) != nullptr) return true;
  }
  return false;
}

bool graph_has_onehot(const Graph& g) {
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto* op = g.node(static_cast<int>(i)).op.get();
    if (dynamic_cast<const ops::OneHotHashOp*>(op) != nullptr) return true;
  }
  return false;
}

}  // namespace

kernels::KernelConfig tune_model_kernels(
    models::Model& model, const data::FeatureMatrix& x,
    const kernels::AutotuneConfig& cfg, const std::string& label,
    std::vector<kernels::VariantTiming>* timings) {
  std::vector<double> out(x.rows());
  kernels::KernelConfig best = model.kernel_config();

  // Stage 1: dot-product variant (drives linear/MLP margins; a pure-tree
  // model times near-identically across these and just keeps the fastest).
  double best_s = std::numeric_limits<double>::infinity();
  for (const auto v : kernels::candidate_dots()) {
    kernels::KernelConfig c = best;
    c.dot = v;
    model.set_kernel_config(c);
    const double s = time_predict_into(model, x, out, cfg.reps);
    if (timings != nullptr) {
      timings->push_back(
          {label + "/dot:" + kernels::variant_name(v), s});
    }
    if (s < best_s) {
      best_s = s;
      best.dot = v;
    }
  }

  // Stage 2: tree traversal variant and block size (exercised by forest
  // models; block 1 row-wise is the branchy reference shape).
  struct TreeCand {
    kernels::TreeVariant tree;
    std::uint32_t block;
    std::string name;
  };
  std::vector<TreeCand> cands;
  cands.push_back({kernels::TreeVariant::RowWise, 1, "rowwise"});
  for (std::uint32_t b : cfg.tree_blocks) {
    b = std::clamp<std::uint32_t>(b, 1, kernels::kMaxTreeBlock);
    cands.push_back(
        {kernels::TreeVariant::Blocked, b, "blocked/" + std::to_string(b)});
  }
  best_s = std::numeric_limits<double>::infinity();
  kernels::KernelConfig tree_pick = best;
  for (const auto& cand : cands) {
    kernels::KernelConfig c = best;
    c.tree = cand.tree;
    c.tree_block = cand.block;
    model.set_kernel_config(c);
    const double s = time_predict_into(model, x, out, cfg.reps);
    if (timings != nullptr) {
      timings->push_back({label + "/tree:" + cand.name, s});
    }
    if (s < best_s) {
      best_s = s;
      tree_pick = c;
    }
  }
  best = tree_pick;

  // Stage 3: sparse traversal cutoff — only meaningful when the feature
  // matrix is CSR (dense inputs never consult it). Two poles: 0 forces the
  // no-densify CSR traversal, UINT32_MAX forces the densify-block path; the
  // winner is pinned so serving dispatches without re-measuring.
  if (!x.is_dense()) {
    struct CutCand {
      std::uint32_t cutoff;
      const char* name;
    };
    const CutCand cuts[] = {
        {0u, "csr"}, {std::numeric_limits<std::uint32_t>::max(), "densify"}};
    best_s = std::numeric_limits<double>::infinity();
    kernels::KernelConfig cut_pick = best;
    for (const auto& cand : cuts) {
      kernels::KernelConfig c = best;
      c.sparse_cutoff = cand.cutoff;
      model.set_kernel_config(c);
      const double s = time_predict_into(model, x, out, cfg.reps);
      if (timings != nullptr) {
        timings->push_back({label + "/sparse:" + cand.name, s});
      }
      if (s < best_s) {
        best_s = s;
        cut_pick = c;
      }
    }
    best = cut_pick;
  }
  model.set_kernel_config(best);
  return best;
}

kernels::FeatureOpConfig tune_feature_ops(
    CompiledExecutor& executor, const data::Batch& sample,
    const kernels::AutotuneConfig& cfg,
    std::vector<kernels::VariantTiming>* timings) {
  kernels::FeatureOpConfig best = executor.featureop_config();
  if (sample.num_rows() == 0 || cfg.reps <= 0) return best;

  // Stage 1: vocabulary lookup strategy. Only TF-IDF consults it, so other
  // pipelines skip the measurement entirely.
  if (graph_has_tfidf(executor.graph())) {
    double best_s = std::numeric_limits<double>::infinity();
    kernels::FeatureOpConfig pick = best;
    for (const auto v :
         {kernels::LookupVariant::HashMap, kernels::LookupVariant::SortedVocab}) {
      kernels::FeatureOpConfig c = best;
      c.lookup = v;
      executor.set_featureop_config(c);
      const double s = time_compute_matrix(executor, sample, cfg.reps);
      if (timings != nullptr) {
        timings->push_back(
            {std::string("ops/lookup:") + kernels::variant_name(v), s});
      }
      if (s < best_s) {
        best_s = s;
        pick = c;
      }
    }
    best = pick;
  }

  // Stage 1b: one-hot hashing shape. Scalar hashes and appends per row;
  // Batched stages the whole block's buckets first (arena/thread-local) and
  // appends in a second tight loop. Identical rows either way, so only
  // graphs that actually hash pay for the measurement.
  if (graph_has_onehot(executor.graph())) {
    double best_s = std::numeric_limits<double>::infinity();
    kernels::FeatureOpConfig pick = best;
    for (const auto v :
         {kernels::OneHotVariant::Scalar, kernels::OneHotVariant::Batched}) {
      kernels::FeatureOpConfig c = best;
      c.onehot = v;
      executor.set_featureop_config(c);
      const double s = time_compute_matrix(executor, sample, cfg.reps);
      if (timings != nullptr) {
        timings->push_back(
            {std::string("ops/onehot:") + kernels::variant_name(v), s});
      }
      if (s < best_s) {
        best_s = s;
        pick = c;
      }
    }
    best = pick;
  }

  // Stage 2: dense assembly row-chunk size — the cache-blocking granularity
  // of the fused concat.
  if (!cfg.block_rows.empty()) {
    double best_s = std::numeric_limits<double>::infinity();
    kernels::FeatureOpConfig pick = best;
    for (std::uint32_t b : cfg.block_rows) {
      b = std::clamp<std::uint32_t>(b, 1, kernels::kMaxBlockRows);
      kernels::FeatureOpConfig c = best;
      c.block_rows = b;
      executor.set_featureop_config(c);
      const double s = time_compute_matrix(executor, sample, cfg.reps);
      if (timings != nullptr) {
        timings->push_back({"ops/block_rows:" + std::to_string(b), s});
      }
      if (s < best_s) {
        best_s = s;
        pick = c;
      }
    }
    best = pick;
  }

  executor.set_featureop_config(best);
  return best;
}

kernels::AutotuneReport autotune_pipeline_kernels(
    TrainedCascade& cascade, Executor& executor,
    const data::Batch& train_inputs, const kernels::AutotuneConfig& cfg) {
  kernels::AutotuneReport rep;
  rep.full = cascade.full_model->kernel_config();
  if (cascade.small_model != nullptr) {
    rep.has_small = true;
    rep.small = cascade.small_model->kernel_config();
  }
  const std::size_t n = train_inputs.num_rows();
  if (n == 0 || cfg.reps <= 0 || cfg.sample_rows == 0) return rep;

  std::vector<std::size_t> rows(std::min(cfg.sample_rows, n));
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const data::Batch sample = train_inputs.select_rows(rows);

  rep.full = tune_model_kernels(*cascade.full_model,
                                executor.compute_matrix(sample), cfg, "full",
                                &rep.timings);
  if (cascade.small_model != nullptr) {
    ExecOptions eff;
    eff.fg_mask = cascade.efficient_mask;
    rep.small = tune_model_kernels(*cascade.small_model,
                                   executor.compute_matrix(sample, eff), cfg,
                                   "small", &rep.timings);
  }
  if (auto* compiled = dynamic_cast<CompiledExecutor*>(&executor);
      compiled != nullptr && cfg.tune_feature_ops) {
    rep.ops = tune_feature_ops(*compiled, sample, cfg, &rep.timings);
    rep.tuned_ops = true;
  }
  rep.tuned = true;
  return rep;
}

}  // namespace willump::core
