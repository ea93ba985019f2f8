// Unit coverage of the serialization primitives: Writer/Reader round trips,
// CRC-32 stability, and per-type op/model payload fidelity (the whole-
// pipeline fidelity and rejection corpora live in their own slow suites).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "models/gbdt.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"
#include "ops/encoders.hpp"
#include "ops/scale.hpp"
#include "ops/string_ops.hpp"
#include "ops/tfidf.hpp"
#include "ops/tokenizer.hpp"
#include "serialize/buffer.hpp"
#include "serialize/model_registry.hpp"
#include "serialize/op_registry.hpp"

namespace willump {
namespace {

TEST(WriterReader, PrimitivesRoundTripLittleEndian) {
  serialize::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1);
  w.f64(3.141592653589793);
  w.str("hello");
  w.doubles(std::vector<double>{1.5, -2.5});
  w.sizes(std::vector<std::size_t>{7, 0, 9});
  w.bools({true, false, true});

  serialize::Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.doubles(), (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(r.sizes(), (std::vector<std::size_t>{7, 0, 9}));
  EXPECT_EQ(r.bools(), (std::vector<bool>{true, false, true}));
  EXPECT_TRUE(r.at_end());
}

TEST(WriterReader, DoubleBitPatternsAreExact) {
  // NaN payloads, infinities, signed zero, denormals: bit-for-bit.
  const std::vector<double> specials = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max()};
  serialize::Writer w;
  w.doubles(specials);
  serialize::Reader r(w.bytes());
  const auto out = r.doubles();
  ASSERT_EQ(out.size(), specials.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
              std::bit_cast<std::uint64_t>(specials[i]));
  }
}

TEST(WriterReader, ReadsPastEndThrowTyped) {
  serialize::Writer w;
  w.u32(1);
  serialize::Reader r(w.bytes());
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), serialize::SerializeError);
}

TEST(Crc32, MatchesKnownVectorAndDetectsFlips) {
  // The canonical zlib test vector.
  const std::string s = "123456789";
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(serialize::crc32(bytes), 0xCBF43926u);
  bytes[4] ^= 0x10;
  EXPECT_NE(serialize::crc32(bytes), 0xCBF43926u);
}

TEST(OpRegistry, StatefulOpsRoundTripTheirParameters) {
  const serialize::OpLoadContext ctx;

  ops::OneHotHashOp oh(128, 99, "brands");
  serialize::Writer w;
  serialize::save_op(w, oh);
  serialize::Reader r(w.bytes());
  const auto loaded = serialize::load_op(r, ctx);
  const auto* oh2 = dynamic_cast<const ops::OneHotHashOp*>(loaded.get());
  ASSERT_NE(oh2, nullptr);
  EXPECT_EQ(oh2->name(), "brands");
  for (std::int64_t k : {0, 7, -5, 123456}) {
    EXPECT_EQ(oh2->bucket_of(k), oh.bucket_of(k));
  }
}

TEST(OpRegistry, TfIdfTransformsIdenticallyAfterReload) {
  ops::TfIdfConfig cfg;
  cfg.min_df = 1;
  cfg.ngrams = {1, 2};
  const data::StringColumn corpus{"red green blue", "green blue", "blue moon",
                                  "red red moon"};
  const auto model = ops::TfIdfModel::fit(corpus, cfg);
  serialize::Writer w;
  model.save(w);
  serialize::Reader r(w.bytes());
  const auto loaded = ops::TfIdfModel::load(r);
  EXPECT_EQ(loaded.vocabulary_size(), model.vocabulary_size());
  for (const auto& doc : corpus) {
    EXPECT_EQ(loaded.transform_one(doc), model.transform_one(doc));
  }
  EXPECT_EQ(loaded.transform_one("moon unseen red"),
            model.transform_one("moon unseen red"));

  // The front-coded vocabulary (count, per-term shared-prefix/suffix, the
  // index permutation and its CRC) undercuts a plain list of terms with
  // fixed 8-byte length prefixes.
  std::set<std::string> terms;
  for (const auto& doc : corpus) {
    for (auto& g : ops::ngrams_of(doc, cfg.analyzer, cfg.ngrams)) {
      terms.insert(std::move(g));
    }
  }
  ASSERT_EQ(terms.size(), static_cast<std::size_t>(model.vocabulary_size()));
  std::size_t plain_bytes = 0;
  for (const auto& t : terms) plain_bytes += t.size() + 8;
  serialize::Reader v(w.bytes());
  (void)v.u8();  // analyzer
  for (int i = 0; i < 4; ++i) (void)v.i32();  // ngram range, max_features, min_df
  for (int i = 0; i < 3; ++i) (void)v.u8();   // idf / sublinear / l2 flags
  const std::size_t vocab_begin = v.position();
  const std::uint64_t n_terms = v.varint();
  ASSERT_EQ(n_terms, terms.size());
  for (std::uint64_t j = 0; j < n_terms; ++j) {
    (void)v.varint();  // shared prefix
    (void)v.raw(static_cast<std::size_t>(v.varint()));
  }
  for (std::uint64_t j = 0; j < n_terms; ++j) (void)v.varint();
  (void)v.u32();
  EXPECT_LT(v.position() - vocab_begin, plain_bytes);
}

TEST(ModelRegistry, EveryFamilyPredictsBitIdenticallyAfterReload) {
  data::DenseMatrix x(80, 4);
  std::vector<double> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    x(i, 0) = std::sin(static_cast<double>(i));
    x(i, 1) = static_cast<double>(i % 5);
    x(i, 2) = static_cast<double>(i) * 0.01;
    x(i, 3) = (i % 3 == 0) ? 1.0 : 0.0;
    y[i] = x(i, 0) + x(i, 3) > 0.5 ? 1.0 : 0.0;
  }
  const data::FeatureMatrix fx(x);

  std::vector<std::shared_ptr<models::Model>> zoo;
  zoo.push_back(std::make_shared<models::LogisticRegression>());
  zoo.push_back(std::make_shared<models::LinearRegression>());
  models::GbdtConfig gb;
  gb.n_trees = 6;
  zoo.push_back(std::make_shared<models::Gbdt>(gb));
  models::MlpConfig mc;
  mc.hidden = 6;
  mc.classification = true;
  zoo.push_back(std::make_shared<models::Mlp>(mc));

  for (const auto& m : zoo) {
    m->fit(fx, y);
    serialize::Writer w;
    serialize::save_model(w, *m);
    serialize::Reader r(w.bytes());
    const auto loaded = serialize::load_model(r);
    EXPECT_TRUE(r.at_end()) << m->name();
    EXPECT_EQ(loaded->name(), m->name());
    EXPECT_EQ(loaded->is_classifier(), m->is_classifier());
    EXPECT_EQ(loaded->predict(fx), m->predict(fx)) << m->name();
    EXPECT_EQ(loaded->feature_importances(), m->feature_importances())
        << m->name();
  }
}

}  // namespace
}  // namespace willump
