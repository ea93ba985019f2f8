#include "ops/tfidf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "serialize/buffer.hpp"

namespace willump::ops {

TfIdfModel TfIdfModel::fit(const data::StringColumn& corpus, TfIdfConfig cfg) {
  TfIdfModel m;
  m.cfg_ = cfg;

  // Document frequencies over the corpus.
  std::unordered_map<std::string, std::int32_t> df;
  std::unordered_map<std::string, std::int32_t> seen_doc;  // term -> last doc id
  std::int32_t doc_id = 0;
  for (const auto& doc : corpus) {
    for_each_ngram(doc, cfg.analyzer, cfg.ngrams, [&](std::string_view g) {
      auto [it, inserted] = seen_doc.try_emplace(std::string(g), doc_id);
      if (inserted || it->second != doc_id) {
        it->second = doc_id;
        ++df[it->first];
      }
    });
    ++doc_id;
  }

  // Rank terms by document frequency (stable by term for determinism) and
  // keep the top max_features above min_df.
  std::vector<std::pair<std::string, std::int32_t>> ranked(df.begin(), df.end());
  std::erase_if(ranked, [&](const auto& p) { return p.second < cfg.min_df; });
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (cfg.max_features > 0 &&
      ranked.size() > static_cast<std::size_t>(cfg.max_features)) {
    ranked.resize(static_cast<std::size_t>(cfg.max_features));
  }

  const double n_docs = static_cast<double>(corpus.size());
  m.vocab_.reserve(ranked.size());
  m.idf_.reserve(ranked.size());
  for (const auto& [term, dfreq] : ranked) {
    m.vocab_.emplace(term, static_cast<std::int32_t>(m.idf_.size()));
    // Smoothed IDF, scikit-learn formulation.
    const double idf =
        cfg.use_idf
            ? std::log((1.0 + n_docs) / (1.0 + static_cast<double>(dfreq))) + 1.0
            : 1.0;
    m.idf_.push_back(idf);
  }
  m.dim_ = static_cast<std::int32_t>(m.idf_.size());
  m.finalize_index();
  return m;
}

void TfIdfModel::finalize_index() {
  // unordered_map is node-based: key strings stay put across rehash, so
  // index-ordered views into them are stable for the model's lifetime.
  terms_.assign(static_cast<std::size_t>(dim_), {});
  for (const auto& [term, idx] : vocab_) {
    terms_[static_cast<std::size_t>(idx)] = term;
  }
  sorted_perm_.resize(static_cast<std::size_t>(dim_));
  for (std::int32_t i = 0; i < dim_; ++i) {
    sorted_perm_[static_cast<std::size_t>(i)] = i;
  }
  std::sort(sorted_perm_.begin(), sorted_perm_.end(),
            [&](std::int32_t a, std::int32_t b) {
              return terms_[static_cast<std::size_t>(a)] <
                     terms_[static_cast<std::size_t>(b)];
            });

  // Flat probe table at <= 50% load; minimum size keeps the probe loop
  // in-bounds even for an empty vocabulary (every slot reads as empty).
  const std::size_t slots = std::max<std::size_t>(
      16, std::bit_ceil(static_cast<std::size_t>(dim_) * 2));
  flat_mask_ = slots - 1;
  flat_.assign(slots, {});
  for (std::int32_t i = 0; i < dim_; ++i) {
    const std::uint64_t h =
        std::hash<std::string_view>{}(terms_[static_cast<std::size_t>(i)]);
    std::size_t s = h & flat_mask_;
    while (flat_[s].idx != -1) s = (s + 1) & flat_mask_;
    flat_[s] = {h, i};
  }
}

std::int32_t TfIdfModel::term_index(std::string_view term) const {
  auto it = vocab_.find(term);
  return it == vocab_.end() ? -1 : it->second;
}

void TfIdfModel::count_terms(std::string_view doc,
                             kernels::LookupVariant lookup,
                             TfIdfScratch& scratch) const {
  scratch.counts.resize(static_cast<std::size_t>(dim_), 0.0);
  scratch.touched.clear();
  auto hit = [&](std::int32_t idx) {
    double& c = scratch.counts[static_cast<std::size_t>(idx)];
    if (c == 0.0) scratch.touched.push_back(idx);
    c += 1.0;
  };
  if (lookup == kernels::LookupVariant::SortedVocab) {
    for_each_ngram_t(doc, cfg_.analyzer, cfg_.ngrams, scratch.tok,
                     [&](std::string_view g) {
                       auto it = std::lower_bound(
                           sorted_perm_.begin(), sorted_perm_.end(), g,
                           [&](std::int32_t i, std::string_view key) {
                             return terms_[static_cast<std::size_t>(i)] < key;
                           });
                       if (it != sorted_perm_.end() &&
                           terms_[static_cast<std::size_t>(*it)] == g) {
                         hit(*it);
                       }
                     });
  } else {
    for_each_ngram_t(doc, cfg_.analyzer, cfg_.ngrams, scratch.tok,
                     [&](std::string_view g) {
                       const std::uint64_t h = std::hash<std::string_view>{}(g);
                       std::size_t s = h & flat_mask_;
                       for (std::int32_t idx; (idx = flat_[s].idx) != -1;
                            s = (s + 1) & flat_mask_) {
                         if (flat_[s].hash == h &&
                             terms_[static_cast<std::size_t>(idx)] == g) {
                           hit(idx);
                           break;
                         }
                       }
                     });
  }
}

void TfIdfModel::build_row(TfIdfScratch& scratch) const {
  // Index-sorted entries; zeroing each touched slot restores the counts
  // all-zeros invariant for the next document.
  std::sort(scratch.touched.begin(), scratch.touched.end());
  scratch.row.clear();
  for (const std::int32_t idx : scratch.touched) {
    double& c = scratch.counts[static_cast<std::size_t>(idx)];
    const double tf = cfg_.sublinear_tf ? 1.0 + std::log(c) : c;
    scratch.row.push_back({idx, tf * idf_[static_cast<std::size_t>(idx)]});
    c = 0.0;
  }
  if (cfg_.l2_normalize) {
    // Same arithmetic as SparseVector::l2_norm + scale(1/norm): sum of
    // v*v in index order, sqrt, multiply — bit-exact with transform_one.
    double sq = 0.0;
    for (const auto& e : scratch.row) sq += e.value * e.value;
    const double norm = std::sqrt(sq);
    if (norm > 0.0) {
      const double inv = 1.0 / norm;
      for (auto& e : scratch.row) e.value *= inv;
    }
  }
}

data::SparseVector TfIdfModel::transform_one(std::string_view doc) const {
  thread_local TfIdfScratch scratch;
  count_terms(doc, kernels::LookupVariant::HashMap, scratch);
  build_row(scratch);
  std::vector<data::SparseEntry> entries(scratch.row.begin(),
                                         scratch.row.end());
  return data::SparseVector(dim_, std::move(entries));
}

void TfIdfModel::transform_into(std::span<const std::string> docs,
                                kernels::LookupVariant lookup,
                                TfIdfScratch& scratch,
                                data::CsrMatrix& out) const {
  for (const auto& doc : docs) {
    count_terms(doc, lookup, scratch);
    build_row(scratch);
    out.append_row(scratch.row);
  }
}

data::CsrMatrix TfIdfModel::transform(const data::StringColumn& docs) const {
  thread_local TfIdfScratch scratch;
  data::CsrMatrix out(dim_);
  transform_into(std::span<const std::string>(docs.data(), docs.size()),
                 kernels::LookupVariant::HashMap, scratch, out);
  return out;
}

void TfIdfModel::save(serialize::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(cfg_.analyzer));
  w.i32(cfg_.ngrams.min_n);
  w.i32(cfg_.ngrams.max_n);
  w.i32(cfg_.max_features);
  w.i32(cfg_.min_df);
  w.u8(cfg_.use_idf ? 1 : 0);
  w.u8(cfg_.sublinear_tf ? 1 : 0);
  w.u8(cfg_.l2_normalize ? 1 : 0);
  // Vocabulary front-coded in lexicographic order (n-gram vocabularies
  // share long prefixes, so most terms reduce to a shared-prefix length
  // plus a short suffix), followed by the permutation mapping sorted
  // position -> vocab index, and a CRC over the *decoded* index-ordered
  // terms so a codec fault can never ship a silently wrong vocabulary.
  w.varint(terms_.size());
  std::string_view prev;
  for (std::int32_t vi : sorted_perm_) {
    const std::string_view t = terms_[static_cast<std::size_t>(vi)];
    std::size_t shared = 0;
    const std::size_t cap = std::min(prev.size(), t.size());
    while (shared < cap && prev[shared] == t[shared]) ++shared;
    w.varint(shared);
    w.varint(t.size() - shared);
    w.raw(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(t.data()) + shared,
        t.size() - shared));
    prev = t;
  }
  for (std::int32_t vi : sorted_perm_) {
    w.varint(static_cast<std::uint64_t>(vi));
  }
  serialize::Writer probe;
  for (auto t : terms_) probe.str(t);
  w.u32(serialize::crc32(probe.bytes()));
  w.doubles(idf_);
}

TfIdfModel TfIdfModel::load(serialize::Reader& r) {
  TfIdfModel m;
  const std::uint8_t analyzer = r.u8();
  if (analyzer > static_cast<std::uint8_t>(Analyzer::Char)) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "tfidf analyzer out of range");
  }
  m.cfg_.analyzer = static_cast<Analyzer>(analyzer);
  m.cfg_.ngrams.min_n = r.i32();
  m.cfg_.ngrams.max_n = r.i32();
  m.cfg_.max_features = r.i32();
  m.cfg_.min_df = r.i32();
  m.cfg_.use_idf = r.u8() != 0;
  m.cfg_.sublinear_tf = r.u8() != 0;
  m.cfg_.l2_normalize = r.u8() != 0;
  if (m.cfg_.ngrams.min_n < 1 || m.cfg_.ngrams.max_n < m.cfg_.ngrams.min_n) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "tfidf ngram range invalid");
  }
  const std::uint64_t n_terms = r.varlength(2, "tfidf vocabulary");
  std::vector<std::string> by_index(static_cast<std::size_t>(n_terms));
  std::vector<std::uint8_t> placed(static_cast<std::size_t>(n_terms), 0);
  std::string prev;
  std::vector<std::string> sorted_terms;
  sorted_terms.reserve(static_cast<std::size_t>(n_terms));
  for (std::uint64_t j = 0; j < n_terms; ++j) {
    const std::uint64_t shared = r.varint();
    const std::uint64_t suffix_len = r.varint();
    if (shared > prev.size()) {
      throw serialize::SerializeError(
          serialize::ErrorCode::CorruptData,
          "tfidf front-coded prefix exceeds previous term");
    }
    const auto suffix = r.raw(static_cast<std::size_t>(suffix_len));
    std::string term = prev.substr(0, static_cast<std::size_t>(shared));
    term.append(reinterpret_cast<const char*>(suffix.data()), suffix.size());
    if (j > 0 && term <= prev) {
      throw serialize::SerializeError(
          serialize::ErrorCode::CorruptData,
          "tfidf front-coded vocabulary not strictly ascending");
    }
    prev = term;
    sorted_terms.push_back(std::move(term));
  }
  for (std::uint64_t j = 0; j < n_terms; ++j) {
    const std::uint64_t vi = r.varint();
    if (vi >= n_terms || placed[static_cast<std::size_t>(vi)] != 0) {
      throw serialize::SerializeError(
          serialize::ErrorCode::CorruptData,
          "tfidf vocabulary permutation is not a bijection");
    }
    placed[static_cast<std::size_t>(vi)] = 1;
    by_index[static_cast<std::size_t>(vi)] =
        std::move(sorted_terms[static_cast<std::size_t>(j)]);
  }
  serialize::Writer probe;
  for (const auto& t : by_index) probe.str(t);
  if (r.u32() != serialize::crc32(probe.bytes())) {
    throw serialize::SerializeError(serialize::ErrorCode::ChecksumMismatch,
                                    "decoded tfidf vocabulary fails its CRC");
  }
  m.vocab_.reserve(static_cast<std::size_t>(n_terms));
  for (std::uint64_t i = 0; i < n_terms; ++i) {
    m.vocab_.emplace(std::move(by_index[static_cast<std::size_t>(i)]),
                     static_cast<std::int32_t>(i));
  }
  m.idf_ = r.doubles();
  if (m.idf_.size() != n_terms) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "tfidf idf/vocabulary size mismatch");
  }
  m.dim_ = static_cast<std::int32_t>(n_terms);
  m.finalize_index();
  return m;
}

void TfIdfOp::save(serialize::Writer& w) const {
  w.str(label_);
  model_->save(w);
}

data::Value TfIdfOp::eval_batch(std::span<const data::Value> inputs) const {
  if (inputs.size() != 1 || !inputs[0].is_column() ||
      inputs[0].column().type() != data::ColumnType::String) {
    throw std::invalid_argument("tfidf: expects one string column");
  }
  return data::Value(
      data::FeatureMatrix(model_->transform(inputs[0].column().strings())));
}

void TfIdfOp::emit_into(std::span<const data::Value> inputs,
                        const BlockExecContext& ctx,
                        data::CsrMatrix& out) const {
  if (inputs.size() != 1 || !inputs[0].is_column() ||
      inputs[0].column().type() != data::ColumnType::String) {
    throw std::invalid_argument("tfidf: expects one string column");
  }
  const auto& docs = inputs[0].column().strings();
  thread_local TfIdfScratch scratch;
  out.reset(model_->vocabulary_size());
  out.reserve(docs.size(), docs.size() * 16);  // ~16 hits/doc starting guess
  model_->transform_into(std::span<const std::string>(docs.data(), docs.size()),
                         ctx.cfg.lookup, scratch, out);
}

}  // namespace willump::ops
