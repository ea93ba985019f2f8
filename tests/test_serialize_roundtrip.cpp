// Roundtrip-fidelity tier: for every workload family, the pipeline loaded
// from an artifact must make BIT-IDENTICAL predictions to the in-memory
// pipeline it was saved from, on every execution path the paper evaluates —
// batch (Fig. 5), pointwise (Fig. 6), cascade-on (§4.2), full-model
// reference, and top-K (§4.3). Doubles are compared with EXPECT_EQ (exact
// bits): the artifact stores IEEE-754 bit patterns and the loaded graph,
// models, and thresholds are the same numbers, so nothing may drift.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/optimizer.hpp"
#include "serialize/artifact.hpp"
#include "serving/server.hpp"
#include "test_support.hpp"
#include "workloads/music.hpp"
#include "workloads/price.hpp"

namespace willump {
namespace {

using core::OptimizedPipeline;
using core::OptimizeOptions;
using core::WillumpOptimizer;

/// Round-trip through bytes (no filesystem dependence in the fidelity
/// assertions themselves; the file path is covered by CheckRegistryColdStart
/// and the fixture cache).
OptimizedPipeline reload(const OptimizedPipeline& p) {
  return serialize::pipeline_from_bytes(serialize::pipeline_to_bytes(p));
}

void expect_bit_identical(const OptimizedPipeline& a, const OptimizedPipeline& b,
                          const data::Batch& held_out) {
  // Batch path.
  EXPECT_EQ(a.predict(held_out), b.predict(held_out));
  // Full-model (no approximation) path.
  EXPECT_EQ(a.predict_full(held_out), b.predict_full(held_out));
  // Pointwise path, first rows.
  const std::size_t n = std::min<std::size_t>(held_out.num_rows(), 16);
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_EQ(a.predict_one(held_out.row(r)), b.predict_one(held_out.row(r)));
  }
}

TEST(SerializeRoundtrip, ToxicCascadePipeline) {
  const auto& wl = testing::shared_toxic_optimized().wl;
  OptimizeOptions opts;
  opts.cascades = true;
  const auto trained =
      WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
  ASSERT_TRUE(trained.cascades_enabled());
  const auto loaded = reload(trained);
  ASSERT_TRUE(loaded.cascades_enabled());
  EXPECT_EQ(loaded.cascade().threshold, trained.cascade().threshold);
  EXPECT_EQ(loaded.cascade().efficient_mask, trained.cascade().efficient_mask);
  expect_bit_identical(trained, loaded, wl.test.inputs);
  // The cascade actually routes on both sides (not a degenerate mask).
  loaded.predict(wl.test.inputs);
  EXPECT_GT(loaded.run_stats().short_circuited, 0u);
}

TEST(SerializeRoundtrip, ToxicDefaultPipelineFromSharedFixture) {
  // The shared fixture itself may have been deserialized from the fixture
  // cache; re-serializing it must reproduce the same bytes-level behavior.
  auto& f = testing::shared_toxic_optimized();
  const auto loaded = reload(f.pipeline);
  expect_bit_identical(f.pipeline, loaded, f.wl.test.inputs);
}

TEST(SerializeRoundtrip, ProductCascadePipeline) {
  const auto& wl = testing::shared_product_wl();
  OptimizeOptions opts;
  opts.cascades = true;
  const auto trained =
      WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
  const auto loaded = reload(trained);
  expect_bit_identical(trained, loaded, wl.test.inputs);
}

TEST(SerializeRoundtrip, CreditTopKPipelineWithRemoteTables) {
  workloads::Workload wl = testing::small_credit_remote();
  OptimizeOptions opts;
  opts.topk_filter = true;
  const auto trained =
      WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
  const auto loaded = reload(trained);
  expect_bit_identical(trained, loaded, wl.test.inputs);
  // Top-K path: identical candidate subsets and identical ranking.
  EXPECT_EQ(trained.top_k(wl.test.inputs, 20), loaded.top_k(wl.test.inputs, 20));
  EXPECT_EQ(trained.topk_stats().subset_size, loaded.topk_stats().subset_size);
  // The simulated-remote network model travels with the lookup ops.
  EXPECT_EQ(loaded.topk_config().ck, trained.topk_config().ck);
}

TEST(SerializeRoundtrip, PriceMlpPipeline) {
  workloads::PriceConfig cfg;
  cfg.sizes = {.train = 900, .valid = 400, .test = 400};
  cfg.name_tfidf_features = 300;
  const auto wl = workloads::make_price(cfg);
  const auto trained =
      WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, {});
  const auto loaded = reload(trained);
  expect_bit_identical(trained, loaded, wl.test.inputs);
}

struct MusicFixture {
  workloads::Workload wl;
  OptimizedPipeline trained;
};

/// A small cascaded music pipeline, trained once per binary.
const MusicFixture& trained_music() {
  static const MusicFixture f = [] {
    workloads::MusicConfig cfg;
    cfg.sizes = {.train = 1000, .valid = 400, .test = 400};
    cfg.n_users = 500;
    cfg.n_songs = 400;
    cfg.n_artists = 120;
    auto wl = workloads::make_music(cfg);
    OptimizeOptions opts;
    opts.cascades = true;
    auto trained =
        WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
    return MusicFixture{std::move(wl), std::move(trained)};
  }();
  return f;
}

TEST(SerializeRoundtrip, MusicLookupPipeline) {
  const auto& f = trained_music();
  const auto loaded = reload(f.trained);
  expect_bit_identical(f.trained, loaded, f.wl.test.inputs);
}

TEST(SerializeRoundtrip, FeatureCacheAndTopKConfigSurvive) {
  const auto& wl = testing::shared_toxic_optimized().wl;
  OptimizeOptions opts;
  opts.feature_cache = true;
  opts.cache_capacity = 128;
  opts.topk.ck = 7.0;
  opts.topk.min_subset_frac = 0.11;
  const auto trained =
      WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
  const auto loaded = reload(trained);
  ASSERT_NE(loaded.cache(), nullptr);
  EXPECT_EQ(loaded.cache_capacity_per_ifv(), 128u);
  EXPECT_EQ(loaded.topk_config().ck, 7.0);
  EXPECT_EQ(loaded.topk_config().min_subset_frac, 0.11);
  expect_bit_identical(trained, loaded, wl.test.inputs);
}

TEST(SerializeRoundtrip, RegistryColdStartsFromArtifactsAlone) {
  // The Table 6 deployment shape: a multi-model registry whose every
  // pipeline arrives as a loadable artifact, no in-process training.
  auto& toxic = testing::shared_toxic_optimized();
  workloads::Workload credit = testing::small_credit_remote();
  const auto credit_trained = core::WillumpOptimizer::optimize(
      credit.pipeline, credit.train, credit.valid, {});

  const std::string dir = ::testing::TempDir();
  const std::string toxic_path = dir + "/toxic.wlmp";
  const std::string credit_path = dir + "/credit.wlmp";
  serialize::save_pipeline(toxic.pipeline, toxic_path);
  serialize::save_pipeline(credit_trained, credit_path);

  serving::Server server(serving::ServerConfig{.num_workers = 2});
  server.load_model("toxic", toxic_path);
  server.load_model("credit", credit_path);

  const auto toxic_batch = toxic.wl.test.inputs.select_rows(
      std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7});
  const auto credit_batch = credit.test.inputs.select_rows(
      std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(server.predict_rows("toxic", toxic_batch),
            toxic.pipeline.predict(toxic_batch));
  EXPECT_EQ(server.predict_rows("credit", credit_batch),
            credit_trained.predict(credit_batch));
  server.shutdown();
}

TEST(SerializeRoundtrip, SwapModelReplacesServedPredictions) {
  auto& toxic = testing::shared_toxic_optimized();
  // A differently-optimized pipeline of the same workload: cascades on, so
  // predictions differ for short-circuited rows.
  core::OptimizeOptions opts;
  opts.cascades = true;
  const auto cascaded = core::WillumpOptimizer::optimize(
      toxic.wl.pipeline, toxic.wl.train, toxic.wl.valid, opts);

  const std::string path = ::testing::TempDir() + "/toxic_swap.wlmp";
  serialize::save_pipeline(cascaded, path);

  serving::Server server(serving::ServerConfig{.num_workers = 1});
  server.register_model("m", &toxic.pipeline);
  const data::Batch row = toxic.wl.test.inputs.row(0);
  EXPECT_EQ(server.submit("m", row).get(), toxic.pipeline.predict_one(row));

  server.swap_model("m", path);
  EXPECT_EQ(server.submit("m", row).get(), cascaded.predict_one(row));
  server.shutdown();
}

TEST(SerializeRoundtrip, ArtifactBytesAreStableAcrossLoadAndSave) {
  // Loading an artifact and saving it again reproduces it byte for byte.
  // The intern pool keys shared fitted state by exact wire bytes, so a
  // drifting byte would stop replicas from sharing one copy.
  const OptimizedPipeline& toxic = testing::shared_toxic_optimized().pipeline;
  for (const OptimizedPipeline* p : {&toxic, &trained_music().trained}) {
    const auto bytes = serialize::pipeline_to_bytes(*p);
    EXPECT_EQ(serialize::pipeline_to_bytes(serialize::pipeline_from_bytes(bytes)),
              bytes);
  }
}

TEST(SerializeRoundtrip, SplitBundleRoundTripsRawSplits) {
  workloads::ToxicConfig cfg;
  cfg.sizes = {.train = 120, .valid = 50, .test = 50};
  const auto wl = workloads::make_toxic(cfg);

  serialize::SplitBundle b;
  b.workload = wl.name;
  b.classification = wl.classification;
  b.train = wl.train;
  b.valid = wl.valid;
  b.test = wl.test;
  const auto bytes = serialize::split_bundle_to_bytes(b);
  const auto loaded = serialize::split_bundle_from_bytes(bytes);

  EXPECT_EQ(loaded.workload, "toxic");
  EXPECT_TRUE(loaded.classification);
  EXPECT_EQ(loaded.train.targets, wl.train.targets);
  EXPECT_EQ(loaded.valid.targets, wl.valid.targets);
  EXPECT_EQ(loaded.test.targets, wl.test.targets);
  EXPECT_EQ(loaded.train.inputs.get("comment").strings(),
            wl.train.inputs.get("comment").strings());
  EXPECT_EQ(loaded.test.inputs.get("comment").strings(),
            wl.test.inputs.get("comment").strings());
}

TEST(SerializeRoundtrip, WorkloadRebuiltFromCachedSplitsIsBitIdentical) {
  // The fixture split cache's contract: rebuilding the workload from
  // round-tripped raw splits re-fits the very same pipeline, so optimized
  // predictions match the freshly generated workload bit for bit.
  workloads::ToxicConfig cfg;
  cfg.sizes = {.train = 150, .valid = 60, .test = 60};
  const auto fresh = workloads::make_toxic(cfg);

  serialize::SplitBundle b{fresh.name, fresh.classification, fresh.train,
                           fresh.valid, fresh.test};
  const auto loaded = serialize::split_bundle_from_bytes(
      serialize::split_bundle_to_bytes(b));
  const auto rebuilt = workloads::make_toxic_from_splits(
      cfg, loaded.train, loaded.valid, loaded.test);

  const auto p_fresh =
      WillumpOptimizer::optimize(fresh.pipeline, fresh.train, fresh.valid, {});
  const auto p_rebuilt = WillumpOptimizer::optimize(
      rebuilt.pipeline, rebuilt.train, rebuilt.valid, {});
  EXPECT_EQ(p_fresh.predict(fresh.test.inputs),
            p_rebuilt.predict(rebuilt.test.inputs));
}

}  // namespace
}  // namespace willump
