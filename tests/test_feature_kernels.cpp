// Parity suite for the vectorized feature-operator kernels and the
// zero-copy blocked feature pipeline (DESIGN.md §10).
//
// The contract mirrors the prediction-kernel layer's (test_kernels.cpp):
// every feature-op variant is BIT-EXACT with its row-wise reference, so the
// assertions here are EXPECT_EQ on doubles, not tolerances —
//  - blocked TF-IDF (transform_into, either vocabulary-lookup strategy)
//    reproduces transform_one's arithmetic per document;
//  - every shape of the compiled executor's matrix path (dense plan,
//    single-sparse plan, one-pass concat of mixed, cached or pooled blocks,
//    any block_rows) and cascade_predict produce the same matrix as the
//    test-local oracle — compute_blocks + pairwise hconcat_all + post-chain
//    — full and masked;
//  - sparse GBDT CSR traversal == densify-block traversal == dense input;
//  - op-level configs round-trip exactly and corrupt bytes are rejected;
//  - a saved artifact cold-starts with the executor's tuned/forced
//    feature-op config installed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cascades.hpp"
#include "core/cost_model.hpp"
#include "core/executors.hpp"
#include "core/feature_cache.hpp"
#include "core/ifv_analysis.hpp"
#include "core/optimizer.hpp"
#include "data/matrix.hpp"
#include "kernels/dispatch.hpp"
#include "models/gbdt.hpp"
#include "models/linear.hpp"
#include "ops/concat.hpp"
#include "ops/encoders.hpp"
#include "ops/scale.hpp"
#include "ops/string_ops.hpp"
#include "ops/tfidf.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"
#include "serialize/buffer.hpp"
#include "serialize/error.hpp"

namespace willump {
namespace {

using kernels::FeatureOpConfig;
using kernels::LookupVariant;

// --- corpus helpers --------------------------------------------------------

const std::vector<std::string>& word_pool() {
  static const std::vector<std::string> pool{
      "red",  "blue",  "fox",  "dog",  "cat",  "bird", "runs", "sat",
      "flew", "big",   "tiny", "old",  "fast", "slow", "the",  "a",
      "wild", "quiet", "loud", "hill", "lake", "tree", "road", "sky"};
  return pool;
}

std::string random_doc(common::Rng& rng, std::size_t max_words = 12) {
  const auto& pool = word_pool();
  const std::size_t n =
      1 + static_cast<std::size_t>(rng.next_double() * static_cast<double>(max_words));
  std::string doc;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0) doc += ' ';
    doc += pool[static_cast<std::size_t>(rng.next_double() *
                                         static_cast<double>(pool.size()))];
  }
  return doc;
}

data::StringColumn random_docs(std::size_t n, common::Rng& rng) {
  data::StringColumn docs(n);
  for (auto& d : docs) d = random_doc(rng);
  return docs;
}

ops::TfIdfModel fitted_tfidf(ops::Analyzer a, common::Rng& rng) {
  ops::TfIdfConfig cfg;
  cfg.analyzer = a;
  cfg.min_df = 1;
  cfg.max_features = 500;
  if (a == ops::Analyzer::Char) cfg.ngrams = {2, 3};
  return ops::TfIdfModel::fit(random_docs(200, rng), cfg);
}

// --- matrix comparison -----------------------------------------------------

/// Bit-exact matrix equality including storage kind: the zero-copy planner
/// must be indistinguishable from the reference path, not merely close.
void expect_bit_equal(const data::FeatureMatrix& got,
                      const data::FeatureMatrix& ref) {
  ASSERT_EQ(got.rows(), ref.rows());
  ASSERT_EQ(got.cols(), ref.cols());
  ASSERT_EQ(got.is_dense(), ref.is_dense());
  if (got.is_dense()) {
    const auto& a = got.dense();
    const auto& b = ref.dense();
    for (std::size_t r = 0; r < a.rows(); ++r) {
      auto ra = a.row(r);
      auto rb = b.row(r);
      for (std::size_t c = 0; c < a.cols(); ++c) {
        ASSERT_EQ(ra[c], rb[c]) << "row " << r << " col " << c;
      }
    }
  } else {
    for (std::size_t r = 0; r < got.rows(); ++r) {
      ASSERT_EQ(got.sparse().row_vector(r), ref.sparse().row_vector(r))
          << "row " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Blocked TF-IDF vs the per-document reference.
// ---------------------------------------------------------------------------

TEST(TfIdfBlocked, BothLookupsMatchTransformOneBitExact) {
  common::Rng rng(41);
  for (const auto analyzer : {ops::Analyzer::Word, ops::Analyzer::Char}) {
    const ops::TfIdfModel m = fitted_tfidf(analyzer, rng);
    for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
      const data::StringColumn docs = random_docs(n, rng);
      for (const auto lookup :
           {LookupVariant::HashMap, LookupVariant::SortedVocab}) {
        ops::TfIdfScratch scratch;
        data::CsrMatrix out(m.vocabulary_size());
        m.transform_into(docs, lookup, scratch, out);
        ASSERT_EQ(out.rows(), n);
        for (std::size_t r = 0; r < n; ++r) {
          ASSERT_EQ(out.row_vector(r), m.transform_one(docs[r]))
              << "n=" << n << " row=" << r
              << " lookup=" << kernels::variant_name(lookup);
        }
      }
    }
  }
}

TEST(TfIdfBlocked, BatchTransformDelegatesToBlockedPath) {
  common::Rng rng(43);
  const ops::TfIdfModel m = fitted_tfidf(ops::Analyzer::Word, rng);
  const data::StringColumn docs = random_docs(64, rng);
  const data::CsrMatrix batch = m.transform(docs);
  ASSERT_EQ(batch.rows(), docs.size());
  for (std::size_t r = 0; r < docs.size(); ++r) {
    EXPECT_EQ(batch.row_vector(r), m.transform_one(docs[r]));
  }
}

TEST(TfIdfBlocked, CopiedModelKeepsBothLookupStrategiesValid) {
  // terms_ holds views into the vocabulary's key nodes; a copy allocates
  // fresh nodes, so the copy must rebuild its index instead of dangling.
  common::Rng rng(47);
  const ops::TfIdfModel original = fitted_tfidf(ops::Analyzer::Word, rng);
  const ops::TfIdfModel copy = original;  // NOLINT(performance-unnecessary-copy)
  const data::StringColumn docs = random_docs(32, rng);
  for (const auto lookup :
       {LookupVariant::HashMap, LookupVariant::SortedVocab}) {
    ops::TfIdfScratch scratch;
    data::CsrMatrix out(copy.vocabulary_size());
    copy.transform_into(docs, lookup, scratch, out);
    for (std::size_t r = 0; r < docs.size(); ++r) {
      EXPECT_EQ(out.row_vector(r), original.transform_one(docs[r]));
    }
  }
}

// ---------------------------------------------------------------------------
// The executor's matrix path vs the blocks+hconcat_all oracle.
// ---------------------------------------------------------------------------

std::shared_ptr<const ops::TfIdfModel> shared_tfidf(ops::Analyzer a,
                                                    std::uint64_t seed) {
  common::Rng rng(seed);
  return std::make_shared<const ops::TfIdfModel>(fitted_tfidf(a, rng));
}

/// Mixed graph: dense string stats + two sparse TF-IDF generators.
core::Graph mixed_graph() {
  core::Graph g;
  const int title = g.add_source("title", data::ColumnType::String);
  const int stats =
      g.add_transform("stats", std::make_shared<ops::StringStatsOp>(), {title});
  const int lower =
      g.add_transform("lower", std::make_shared<ops::LowercaseOp>(), {title});
  const int word = g.add_transform(
      "word", std::make_shared<ops::TfIdfOp>(shared_tfidf(ops::Analyzer::Word, 51)),
      {lower});
  const int chars = g.add_transform(
      "char", std::make_shared<ops::TfIdfOp>(shared_tfidf(ops::Analyzer::Char, 53)),
      {lower});
  const int cat = g.add_transform("concat", std::make_shared<ops::ConcatOp>(),
                                  {stats, word, chars});
  g.set_output(cat);
  return g;
}

/// All-dense graph: two NumericColumnsOp generators (both DenseBlockWriter).
core::Graph dense_graph() {
  core::Graph g;
  const int a = g.add_source("a", data::ColumnType::Double);
  const int b = g.add_source("b", data::ColumnType::Double);
  const int k = g.add_source("k", data::ColumnType::Int);
  const int n1 = g.add_transform(
      "num1", std::make_shared<ops::NumericColumnsOp>("num1"), {a, b});
  const int n2 = g.add_transform(
      "num2", std::make_shared<ops::NumericColumnsOp>("num2"), {k});
  const int cat = g.add_transform("concat", std::make_shared<ops::ConcatOp>(),
                                  {n1, n2});
  g.set_output(cat);
  return g;
}

/// Single sparse generator whose emitted CSR is the model input directly.
core::Graph single_sparse_graph() {
  core::Graph g;
  const int title = g.add_source("title", data::ColumnType::String);
  const int lower =
      g.add_transform("lower", std::make_shared<ops::LowercaseOp>(), {title});
  const int word = g.add_transform(
      "word", std::make_shared<ops::TfIdfOp>(shared_tfidf(ops::Analyzer::Word, 59)),
      {lower});
  g.set_output(word);
  return g;
}

data::Batch string_batch(std::size_t rows, std::uint64_t seed) {
  common::Rng rng(seed);
  data::Batch b;
  b.add("title", data::Column(random_docs(rows, rng)));
  return b;
}

data::Batch numeric_batch(std::size_t rows, std::uint64_t seed) {
  common::Rng rng(seed);
  data::Batch b;
  data::DoubleColumn a(rows), bb(rows);
  data::IntColumn k(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    a[i] = rng.next_gaussian();
    bb[i] = rng.next_bernoulli(0.3) ? 0.0 : rng.next_gaussian();
    k[i] = static_cast<std::int64_t>(i % 17);
  }
  b.add("a", data::Column(std::move(a)));
  b.add("b", data::Column(std::move(bb)));
  b.add("k", data::Column(std::move(k)));
  return b;
}

bool selected(const std::vector<bool>& mask, std::size_t f) {
  return mask.empty() || (f < mask.size() && mask[f]);
}

/// The parity oracle: one block per generator (compute_blocks), folded by
/// the pairwise FeatureMatrix::hconcat_all, then the post-concatenation
/// chain — column-sliced under a partial mask. This is the executor's
/// original reference assembly, kept here so every planned shape stays
/// bit-exact with it.
data::FeatureMatrix oracle_matrix(const core::Executor& ex,
                                  const data::Batch& batch,
                                  const std::vector<bool>& mask) {
  core::ExecOptions opts;
  opts.fg_mask = mask;
  const auto blocks = ex.compute_blocks(batch, opts);
  const auto& a = ex.analysis();
  std::vector<data::FeatureMatrix> parts;
  bool full = true;
  for (std::size_t f = 0; f < a.num_generators(); ++f) {
    if (selected(mask, f)) {
      parts.push_back(blocks[f]);
    } else {
      full = false;
    }
  }
  data::FeatureMatrix m = data::FeatureMatrix::hconcat_all(parts);
  for (int post : a.post_chain) {
    const auto& op = *ex.graph().node(post).op;
    if (full) {
      data::Value v[1] = {data::Value(std::move(m))};
      m = op.eval_batch(v).features();
    } else {
      m = dynamic_cast<const ops::ColumnSliceable&>(op).apply_columns(
          m, a.columns_of(mask));
    }
  }
  return m;
}

/// Compare the executor's matrix against the oracle on one executor, full
/// and masked, across lookup variants and block_rows sizes.
void expect_zero_copy_matches_reference(core::Graph g, const data::Batch& batch,
                                        const std::vector<bool>& mask) {
  core::CompiledExecutor ex(g, core::analyze_ifvs(g));
  ex.probe_layout(batch);
  core::ExecOptions opts;
  opts.fg_mask = mask;
  const data::FeatureMatrix ref = oracle_matrix(ex, batch, mask);

  for (const auto lookup :
       {LookupVariant::HashMap, LookupVariant::SortedVocab}) {
    for (const std::uint32_t block_rows : {1u, 3u, 256u}) {
      ex.set_featureop_config(FeatureOpConfig{lookup, block_rows});
      expect_bit_equal(ex.compute_matrix(batch, opts), ref);
    }
  }
}

TEST(ZeroCopy, MixedPlanMatchesReferenceBitExact) {
  expect_zero_copy_matches_reference(mixed_graph(), string_batch(37, 61), {});
}

TEST(ZeroCopy, MixedPlanMaskedSubsetsMatchReference) {
  const data::Batch batch = string_batch(29, 67);
  expect_zero_copy_matches_reference(mixed_graph(), batch,
                                     {true, false, true});
  expect_zero_copy_matches_reference(mixed_graph(), batch,
                                     {false, true, false});
}

TEST(ZeroCopy, DensePlanMatchesReferenceBitExact) {
  expect_zero_copy_matches_reference(dense_graph(), numeric_batch(41, 71), {});
  expect_zero_copy_matches_reference(dense_graph(), numeric_batch(17, 73),
                                     {true, false});
}

TEST(ZeroCopy, DensePlanStaysDense) {
  core::Graph g = dense_graph();
  core::CompiledExecutor ex(g, core::analyze_ifvs(g));
  const data::Batch batch = numeric_batch(23, 79);
  ex.probe_layout(batch);
  EXPECT_TRUE(ex.compute_matrix(batch).is_dense());
}

TEST(ZeroCopy, SingleSparseEmitterMatchesReference) {
  expect_zero_copy_matches_reference(single_sparse_graph(),
                                     string_batch(33, 83), {});
}

TEST(ZeroCopy, PostConcatChainStillApplies) {
  // Dense plan with a ScaleOp after the concat: the post-chain must run on
  // the planner's matrix exactly as on the reference path, full and masked
  // (the masked case exercises the ColumnSliceable slice application).
  core::Graph g;
  const int a = g.add_source("a", data::ColumnType::Double);
  const int k = g.add_source("k", data::ColumnType::Int);
  const int n1 = g.add_transform(
      "num1", std::make_shared<ops::NumericColumnsOp>("num1"), {a});
  const int n2 = g.add_transform(
      "num2", std::make_shared<ops::NumericColumnsOp>("num2"), {k});
  const int cat = g.add_transform("concat", std::make_shared<ops::ConcatOp>(),
                                  {n1, n2});
  const int scale = g.add_transform(
      "scale",
      std::make_shared<ops::ScaleOp>(std::vector<double>{2.0, 0.5},
                                     std::vector<double>{1.0, -3.0}),
      {cat});
  g.set_output(scale);

  data::Batch batch;
  common::Rng rng(89);
  data::DoubleColumn ca(19);
  data::IntColumn ck(19);
  for (std::size_t i = 0; i < 19; ++i) {
    ca[i] = rng.next_gaussian();
    ck[i] = static_cast<std::int64_t>(i);
  }
  batch.add("a", data::Column(std::move(ca)));
  batch.add("k", data::Column(std::move(ck)));

  expect_zero_copy_matches_reference(g, batch, {});
  expect_zero_copy_matches_reference(g, batch, {true, false});
}

TEST(ZeroCopy, EmptyBatchMatchesOracle) {
  // The layout is probed on real rows; a zero-row request must still match
  // the oracle's widths, which come from the blocks, not the layout.
  const std::pair<core::Graph, data::Batch> cases[] = {
      {dense_graph(), numeric_batch(5, 131)},
      {single_sparse_graph(), string_batch(5, 137)},
      {mixed_graph(), string_batch(5, 139)},
  };
  for (const auto& [g, probe] : cases) {
    core::CompiledExecutor ex(g, core::analyze_ifvs(g));
    ex.probe_layout(probe);
    const data::Batch empty = probe.select_rows(std::vector<std::size_t>{});
    expect_bit_equal(ex.compute_matrix(empty), oracle_matrix(ex, empty, {}));
  }
}

TEST(ZeroCopy, CachedGeneratorsMatchOracle) {
  core::Graph g = mixed_graph();
  core::CompiledExecutor ex(g, core::analyze_ifvs(g));
  const data::Batch batch = string_batch(31, 149);
  ex.probe_layout(batch);
  const data::FeatureMatrix ref = oracle_matrix(ex, batch, {});
  const data::FeatureMatrix ref_masked =
      oracle_matrix(ex, batch, {false, true, true});

  core::FeatureCacheBank cache(ex.analysis().num_generators(), 1024);
  core::ExecOptions opts;
  opts.cache = &cache;
  // A prefix first, so the full batch mixes cache hits and misses; then
  // the full batch again, all hits.
  std::vector<std::size_t> prefix(12);
  for (std::size_t i = 0; i < prefix.size(); ++i) prefix[i] = i;
  (void)ex.compute_matrix(batch.select_rows(prefix), opts);
  expect_bit_equal(ex.compute_matrix(batch, opts), ref);
  expect_bit_equal(ex.compute_matrix(batch, opts), ref);
  opts.fg_mask = {false, true, true};
  expect_bit_equal(ex.compute_matrix(batch, opts), ref_masked);
}

TEST(ZeroCopy, PooledGeneratorsMatchOracle) {
  runtime::ThreadPool pool(2);
  core::ExecOptions opts;
  opts.pool = &pool;
  const std::pair<core::Graph, data::Batch> cases[] = {
      {dense_graph(), numeric_batch(43, 151)},
      {mixed_graph(), string_batch(43, 157)},
  };
  for (const auto& [g, batch] : cases) {
    core::CompiledExecutor ex(g, core::analyze_ifvs(g));
    ex.probe_layout(batch);
    for (const std::vector<bool>& mask :
         {std::vector<bool>{}, std::vector<bool>{true, false, true}}) {
      opts.fg_mask = mask;
      expect_bit_equal(ex.compute_matrix(batch, opts),
                       oracle_matrix(ex, batch, mask));
    }
  }
}

TEST(ZeroCopy, CascadePredictMatchesOracleMatrices) {
  core::Graph g = mixed_graph();
  auto ex = std::make_shared<core::CompiledExecutor>(g, core::analyze_ifvs(g));
  const data::Batch batch = string_batch(80, 163);
  ex->probe_layout(batch);
  std::vector<double> y(batch.num_rows());
  const auto& docs = batch.get("title").strings();
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = docs[i].find("fox") != std::string::npos ? 1.0 : 0.0;
  }

  core::TrainedCascade cascade;
  cascade.efficient_mask = {true, false, false};
  cascade.inefficient_mask = {false, true, true};
  const data::FeatureMatrix x_eff =
      oracle_matrix(*ex, batch, cascade.efficient_mask);
  const data::FeatureMatrix x_full = oracle_matrix(*ex, batch, {});
  auto small = std::make_shared<models::LogisticRegression>();
  small->fit(x_eff, y);
  auto full = std::make_shared<models::LogisticRegression>();
  full->fit(x_full, y);
  cascade.small_model = small;
  cascade.full_model = full;

  // Threshold at the median small-model confidence, so both the
  // short-circuit and the full-model branch serve rows.
  const std::vector<double> small_preds = small->predict(x_eff);
  const std::vector<double> full_preds = full->predict(x_full);
  std::vector<double> conf(small_preds.size());
  for (std::size_t i = 0; i < conf.size(); ++i) {
    conf[i] = models::confidence(small_preds[i]);
  }
  std::vector<double> sorted = conf;
  std::sort(sorted.begin(), sorted.end());
  cascade.threshold = sorted[sorted.size() / 2];

  std::vector<double> want(conf.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    want[i] = conf[i] > cascade.threshold ? small_preds[i] : full_preds[i];
  }
  core::CascadeRunStats stats;
  EXPECT_EQ(core::cascade_predict(*ex, cascade, batch, {}, &stats), want);
  EXPECT_GT(stats.short_circuited, 0u);
  EXPECT_LT(stats.short_circuited, stats.total_rows);
}

// ---------------------------------------------------------------------------
// Sparse GBDT traversal dispatch.
// ---------------------------------------------------------------------------

TEST(GbdtSparse, CsrAndDensifyTraversalsMatchDenseBitExact) {
  common::Rng rng(97);
  const std::size_t d = 40;
  data::DenseMatrix xtr(400, d);
  for (std::size_t r = 0; r < xtr.rows(); ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      xtr(r, c) = rng.next_bernoulli(0.7) ? 0.0 : rng.next_gaussian();
    }
  }
  std::vector<double> y(xtr.rows());
  for (std::size_t r = 0; r < xtr.rows(); ++r) {
    y[r] = xtr(r, 0) - xtr(r, 1) > 0.0 ? 1.0 : 0.0;
  }
  models::GbdtConfig cfg;
  cfg.n_trees = 20;
  cfg.max_depth = 4;
  cfg.permutation_rows = 0;
  models::Gbdt model(cfg);
  model.fit(data::FeatureMatrix(xtr), y);

  data::DenseMatrix xte(150, d);
  for (std::size_t r = 0; r < xte.rows(); ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      xte(r, c) = rng.next_bernoulli(0.8) ? 0.0 : rng.next_gaussian();
    }
  }
  const data::FeatureMatrix dense(xte);
  const data::FeatureMatrix sparse(dense.to_csr());
  const std::vector<double> ref = model.predict(dense);

  kernels::KernelConfig kc = model.kernel_config();
  kc.sparse_cutoff = 0;  // force the CSR traversal
  model.set_kernel_config(kc);
  EXPECT_EQ(model.predict(sparse), ref);

  kc.sparse_cutoff = std::numeric_limits<std::uint32_t>::max();  // force densify
  model.set_kernel_config(kc);
  EXPECT_EQ(model.predict(sparse), ref);
}

// ---------------------------------------------------------------------------
// Config serialization.
// ---------------------------------------------------------------------------

TEST(FeatureOpConfigSerialize, RoundTripsExactly) {
  const FeatureOpConfig cfg{LookupVariant::SortedVocab, 4096, false};
  serialize::Writer w;
  kernels::save_featureop_config(w, cfg);
  serialize::Reader r(w.bytes());
  EXPECT_EQ(kernels::load_featureop_config(r), cfg);
}

TEST(FeatureOpConfigSerialize, RejectsOutOfRangeValues) {
  const auto corrupt = [](std::uint8_t lookup, std::uint32_t block_rows,
                          std::uint8_t zero_copy, std::uint8_t onehot = 0) {
    serialize::Writer w;
    w.u8(lookup);
    w.u32(block_rows);
    w.u8(zero_copy);
    w.u8(onehot);  // v4 wire carries the one-hot variant byte
    serialize::Reader r(w.bytes());
    try {
      kernels::load_featureop_config(r);
      return false;  // should have thrown
    } catch (const serialize::SerializeError& e) {
      return e.code() == serialize::ErrorCode::CorruptData;
    }
  };
  EXPECT_TRUE(corrupt(7, 256, 1));                          // unknown lookup
  EXPECT_TRUE(corrupt(0, 0, 1));                            // zero block_rows
  EXPECT_TRUE(corrupt(0, kernels::kMaxBlockRows + 1, 1));   // block_rows too big
  EXPECT_TRUE(corrupt(0, 256, 2));                          // bad bool
  EXPECT_TRUE(corrupt(0, 256, 1, 2));                       // unknown one-hot
}

// ---------------------------------------------------------------------------
// Op-level autotuning and artifact cold-start.
// ---------------------------------------------------------------------------

TEST(FeatureOpAutotune, InstallsWinnerAndRecordsCandidates) {
  core::Graph g = mixed_graph();
  core::CompiledExecutor ex(g, core::analyze_ifvs(g));
  const data::Batch batch = string_batch(48, 101);
  ex.probe_layout(batch);

  kernels::AutotuneConfig cfg;
  cfg.reps = 1;
  std::vector<kernels::VariantTiming> timings;
  const FeatureOpConfig winner =
      core::tune_feature_ops(ex, batch, cfg, &timings);
  EXPECT_EQ(ex.featureop_config(), winner);

  bool saw_lookup = false, saw_block_rows = false;
  for (const auto& t : timings) {
    saw_lookup = saw_lookup || t.name.rfind("ops/lookup:", 0) == 0;
    saw_block_rows = saw_block_rows || t.name.rfind("ops/block_rows:", 0) == 0;
  }
  EXPECT_TRUE(saw_lookup);  // the graph has TF-IDF, so lookup was timed
  EXPECT_TRUE(saw_block_rows);
}

core::LabeledData labeled_strings(std::size_t rows, std::uint64_t seed) {
  core::LabeledData d;
  d.inputs = string_batch(rows, seed);
  const auto& docs = d.inputs.get("title").strings();
  d.targets.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    d.targets[i] = docs[i].size() % 2 == 0 ? 1.0 : 0.0;
  }
  return d;
}

TEST(FeatureOpArtifact, ForcedConfigColdStartsFromBytes) {
  core::Pipeline pipeline;
  pipeline.graph = mixed_graph();
  pipeline.model_proto = std::make_shared<models::LogisticRegression>();

  const core::LabeledData train = labeled_strings(120, 103);
  const core::LabeledData valid = labeled_strings(40, 107);

  core::OptimizeOptions opts;
  opts.autotune_kernels = false;
  const FeatureOpConfig forced{LookupVariant::SortedVocab, 64, false};
  opts.featureop_config = forced;

  const auto optimized =
      core::WillumpOptimizer::optimize(pipeline, train, valid, opts);
  EXPECT_TRUE(optimized.autotune_report().tuned_ops);
  EXPECT_EQ(optimized.autotune_report().ops, forced);

  const auto bytes = serialize::pipeline_to_bytes(optimized);
  const auto loaded = serialize::pipeline_from_bytes(bytes);
  const auto* compiled =
      dynamic_cast<const core::CompiledExecutor*>(&loaded.executor());
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->featureop_config(), forced);

  const data::Batch test = string_batch(25, 109);
  EXPECT_EQ(loaded.predict(test), optimized.predict(test));
}

TEST(FeatureOpArtifact, AutotunedConfigColdStartsFromBytes) {
  core::Pipeline pipeline;
  pipeline.graph = mixed_graph();
  pipeline.model_proto = std::make_shared<models::LogisticRegression>();

  const core::LabeledData train = labeled_strings(120, 113);
  const core::LabeledData valid = labeled_strings(40, 127);

  core::OptimizeOptions opts;
  opts.autotune.reps = 1;
  opts.autotune.sample_rows = 32;

  const auto optimized =
      core::WillumpOptimizer::optimize(pipeline, train, valid, opts);
  ASSERT_TRUE(optimized.autotune_report().tuned_ops);

  const auto loaded =
      serialize::pipeline_from_bytes(serialize::pipeline_to_bytes(optimized));
  const auto* compiled =
      dynamic_cast<const core::CompiledExecutor*>(&loaded.executor());
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->featureop_config(), optimized.autotune_report().ops);

  const data::Batch test = string_batch(25, 131);
  EXPECT_EQ(loaded.predict(test), optimized.predict(test));
}

}  // namespace
}  // namespace willump
