// Microbenchmark of the feature-operator kernel layer (DESIGN.md §10): the
// batched TF-IDF transform, the sparse-GBDT traversal that skips per-block
// densification, and the executor's planned feature assembly — the
// feature-side counterpart of bench_micro_kernels' model-side sections.
// Each section times the same fitted state under the pre-kernel code shape
// (per-document std::string n-grams + unordered_map counts + append_row;
// densify-then-traverse; per-op blocks + pairwise hconcat) against the
// blocked kernels, verifying bit-exact outputs along the way.
//
// `--trend` asserts the layer's acceptance floors: blocked TF-IDF >= 2x the
// per-document scalar reference, CSR GBDT traversal >= 1.3x densify on
// wide-sparse inputs, music feature stage >= 1.5x and end-to-end music
// >= 1.3x over the per-op-block reference with bit-exact predictions, and
// the op-level autotuned pipeline never losing to the forced reference.
// The nightly ctest tier drives it this way; `--smoke` only proves the
// binary runs end-to-end.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/cost_model.hpp"
#include "core/executors.hpp"
#include "kernels/autotune.hpp"
#include "kernels/dispatch.hpp"
#include "models/gbdt.hpp"
#include "ops/tfidf.hpp"
#include "ops/tokenizer.hpp"

using namespace willump;
using namespace willump::bench;

namespace {

int failures = 0;

void check_trend(bool ok, const char* what) {
  if (!trend()) return;
  if (!ok) {
    std::printf("TREND VIOLATION: %s\n", what);
    ++failures;
  } else {
    std::printf("trend ok: %s\n", what);
  }
}

int reps() { return smoke() ? 1 : 5; }

// --- synthetic text corpus -------------------------------------------------

std::vector<std::string> word_pool(std::size_t n, common::Rng& rng) {
  std::vector<std::string> pool(n);
  for (auto& w : pool) {
    const std::size_t len = 3 + static_cast<std::size_t>(rng.next_double() * 6);
    w.resize(len);
    for (auto& ch : w) {
      ch = static_cast<char>('a' + static_cast<int>(rng.next_double() * 26));
    }
  }
  return pool;
}

data::StringColumn make_docs(std::size_t n, const std::vector<std::string>& pool,
                             common::Rng& rng, std::size_t words_per_doc) {
  data::StringColumn docs(n);
  for (auto& doc : docs) {
    const std::size_t len =
        1 + static_cast<std::size_t>(rng.next_double() *
                                     static_cast<double>(words_per_doc));
    for (std::size_t i = 0; i < len; ++i) {
      if (i != 0) doc += ' ';
      // Zipf-ish reuse so document frequencies spread across the vocabulary.
      const double u = rng.next_double();
      doc += pool[static_cast<std::size_t>(u * u * static_cast<double>(pool.size()))];
    }
  }
  return docs;
}

/// The pre-kernel per-document transform shape: a fresh n-gram std::string
/// vector per document, an unordered_map<string, count>, a vocabulary probe
/// per gram, entries sorted and normalized per row, append_row per row.
/// The bench fits with use_idf=false so this reference needs no access to
/// the model's private idf table; with idf weights all 1.0 the arithmetic
/// (index-ordered tf + l2) is bit-identical to the blocked kernel's — only
/// the allocation/lookup shape differs, which is what the section times.
data::CsrMatrix transform_old_shape(const ops::TfIdfModel& m,
                                    const data::StringColumn& docs) {
  data::CsrMatrix out(m.vocabulary_size());
  for (const auto& doc : docs) {
    const std::vector<std::string> grams =
        ops::ngrams_of(doc, m.config().analyzer, m.config().ngrams);
    std::unordered_map<std::string, double> counts;
    for (const auto& g : grams) counts[g] += 1.0;
    std::vector<data::SparseEntry> entries;
    entries.reserve(counts.size());
    for (const auto& [term, c] : counts) {
      const std::int32_t idx = m.term_index(term);
      if (idx < 0) continue;
      entries.push_back({idx, m.config().sublinear_tf ? 1.0 + std::log(c) : c});
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    if (m.config().l2_normalize) {
      double sq = 0.0;
      for (const auto& e : entries) sq += e.value * e.value;
      const double norm = std::sqrt(sq);
      if (norm > 0.0) {
        const double inv = 1.0 / norm;
        for (auto& e : entries) e.value *= inv;
      }
    }
    out.append_row(entries);
  }
  return out;
}

/// Section 1: blocked TF-IDF vs the per-document reference. The blocked
/// kernel reuses one scratch (dense counts + touched list + string_view
/// tokenization) across the whole column; the reference pays a gram vector,
/// a count map, and a row allocation per document.
void bench_tfidf() {
  std::printf("\n-- TF-IDF transform (blocked vs per-document) --\n");
  common::Rng rng(31);
  const auto pool = word_pool(3000, rng);
  const std::size_t fit_docs = smoke() ? 400 : 4000;
  const std::size_t bench_docs = smoke() ? 500 : 8000;

  ops::TfIdfConfig cfg;
  cfg.min_df = 1;
  cfg.max_features = 4000;
  cfg.use_idf = false;  // lets the reference skip the private idf table
  const ops::TfIdfModel model =
      ops::TfIdfModel::fit(make_docs(fit_docs, pool, rng, 40), cfg);
  const data::StringColumn docs = make_docs(bench_docs, pool, rng, 40);
  const std::span<const std::string> span(docs.data(), docs.size());

  // Parity first: the timed paths must agree bit-exactly.
  const data::CsrMatrix ref_rows = transform_old_shape(model, docs);
  std::size_t mismatches = 0;
  for (const auto lookup : {kernels::LookupVariant::HashMap,
                            kernels::LookupVariant::SortedVocab}) {
    ops::TfIdfScratch scratch;
    data::CsrMatrix blocked(model.vocabulary_size());
    model.transform_into(span, lookup, scratch, blocked);
    for (std::size_t r = 0; r < docs.size(); ++r) {
      if (!(blocked.row_vector(r) == ref_rows.row_vector(r))) ++mismatches;
    }
  }
  std::printf("parity: %zu mismatched rows (must be 0)\n", mismatches);
  check_trend(mismatches == 0, "blocked TF-IDF bit-exact with per-doc rows");

  TablePrinter table({"path", "docs/s", "vs per-doc"});
  table.print_header();
  const double per_doc = throughput_rows_per_sec(
      bench_docs, reps(), [&] { (void)transform_old_shape(model, docs); });
  table.print_row({"per-doc", fmt("%.0f", per_doc), "1.00x"});

  double best = 0.0;
  for (const auto lookup : {kernels::LookupVariant::HashMap,
                            kernels::LookupVariant::SortedVocab}) {
    ops::TfIdfScratch scratch;
    const double qps = throughput_rows_per_sec(bench_docs, reps(), [&] {
      data::CsrMatrix out(model.vocabulary_size());
      model.transform_into(span, lookup, scratch, out);
    });
    best = std::max(best, qps);
    table.print_row({std::string("blocked/") + kernels::variant_name(lookup),
                     fmt("%.0f", qps), fmt("%.2fx", qps / per_doc)});
  }
  check_trend(best >= 2.0 * per_doc,
              "blocked TF-IDF >= 2x per-document scalar");
}

/// Section 2: wide-sparse GBDT traversal. The densify path scatters each
/// row's entries into a kMaxTreeBlock x cols scratch, runs the blocked
/// kernel, and scatters zeros back — on a TF-IDF-wide matrix that scratch
/// is tens of MiB and every touch misses cache. The CSR path probes each
/// node's feature by binary search over the row's L1-resident entry list.
/// The forest references a few hundred informative columns (the realistic
/// shape: trees pick the discriminative terms of a huge vocabulary), but
/// the input rows carry entries across the full width.
void bench_sparse_gbdt() {
  std::printf("\n-- GBDT traversal on wide-sparse input (CSR vs densify) --\n");
  common::Rng rng(37);
  const std::size_t signal_cols = 300;  // the columns trees can reference
  const std::size_t cols = smoke() ? 4096 : 65536;
  const std::size_t train_rows = smoke() ? 200 : 300;
  const std::size_t bench_rows = smoke() ? 500 : 2000;
  const std::size_t nnz_per_row = 60;

  data::DenseMatrix xtr(train_rows, signal_cols);
  std::vector<double> y(train_rows);
  for (std::size_t r = 0; r < train_rows; ++r) {
    for (std::size_t c = 0; c < signal_cols; ++c) {
      xtr(r, c) = rng.next_bernoulli(0.1) ? rng.next_double() : 0.0;
    }
    y[r] = xtr(r, 3) + xtr(r, 7) > xtr(r, 11) ? 1.0 : 0.0;
  }
  models::GbdtConfig cfg;
  cfg.n_trees = smoke() ? 20 : 50;
  cfg.max_depth = 6;
  cfg.permutation_rows = 0;
  models::Gbdt model(cfg);
  model.fit(data::FeatureMatrix(xtr), y);

  // Test rows at full TF-IDF width: a sprinkle of signal-column entries
  // plus tail entries spread over the whole vocabulary.
  data::CsrMatrix xs(static_cast<std::int32_t>(cols));
  std::vector<data::SparseEntry> row;
  for (std::size_t r = 0; r < bench_rows; ++r) {
    row.clear();
    std::vector<bool> used(cols, false);
    for (std::size_t k = 0; k < nnz_per_row; ++k) {
      const bool in_signal = rng.next_bernoulli(0.3);
      const std::size_t span = in_signal ? signal_cols : cols;
      const std::size_t c =
          static_cast<std::size_t>(rng.next_double() * static_cast<double>(span));
      if (used[c]) continue;
      used[c] = true;
      row.push_back({static_cast<std::int32_t>(c), rng.next_double()});
    }
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.index < b.index; });
    xs.append_row(row);
  }
  const data::FeatureMatrix x(std::move(xs));
  std::vector<double> out_csr(bench_rows), out_dense(bench_rows);

  kernels::KernelConfig kc = model.kernel_config();
  kc.sparse_cutoff = std::numeric_limits<std::uint32_t>::max();
  model.set_kernel_config(kc);
  const double densify = throughput_rows_per_sec(
      bench_rows, reps(), [&] { model.predict_into(x, out_dense); });

  kc.sparse_cutoff = 0;
  model.set_kernel_config(kc);
  const double csr = throughput_rows_per_sec(
      bench_rows, reps(), [&] { model.predict_into(x, out_csr); });

  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < bench_rows; ++r) {
    if (out_csr[r] != out_dense[r]) ++mismatches;
  }

  TablePrinter table({"path", "rows/s", "vs densify"});
  table.print_header();
  table.print_row({"densify", fmt("%.0f", densify), "1.00x"});
  table.print_row({"csr", fmt("%.0f", csr), fmt("%.2fx", csr / densify)});
  std::printf("parity: %zu mismatched predictions (must be 0)\n", mismatches);

  check_trend(mismatches == 0, "CSR traversal bit-exact with densify");
  check_trend(csr >= 1.3 * densify,
              "CSR GBDT traversal >= 1.3x densify on wide-sparse");
}

/// Sections 3+4: feature-stage and end-to-end contribution on music
/// (Figure 5's shape: six table-lookup generators feeding a GBDT). All
/// arms share one forced model-kernel config so they differ ONLY in the
/// feature layer: the reference arm is built here from the executor's
/// public seams — one block per generator (compute_blocks) folded by
/// pairwise FeatureMatrix::hconcat_all, the pre-planner shape — the planned
/// arm is the executor's compute_matrix, where the lookup ops write their
/// rows straight into the final matrix, and the autotuned arm lets the
/// op-level tuner pick.
void bench_music() {
  std::printf("\n-- Music feature stage + end-to-end (planned assembly) --\n");
  const auto wl = make_workload("music");
  const std::size_t rows = wl.test.inputs.num_rows();

  core::OptimizeOptions forced_opts = compiled_config();
  forced_opts.kernel_config = kernels::native_config();
  forced_opts.featureop_config =
      kernels::FeatureOpConfig{kernels::LookupVariant::HashMap, 256};
  const auto planned = optimize(wl, forced_opts);

  core::OptimizeOptions tuned_opts = compiled_config();
  tuned_opts.kernel_config = kernels::native_config();  // isolate the op layer
  const auto tuned = optimize(wl, tuned_opts);

  // Music has no post-concatenation chain, so the fold is the whole matrix.
  const core::Executor& exec = planned.executor();
  const auto reference_matrix = [&] {
    return data::FeatureMatrix::hconcat_all(exec.compute_blocks(wl.test.inputs, {}));
  };

  const auto feature_tput = [&](const core::OptimizedPipeline& p) {
    return throughput_rows_per_sec(rows, reps(), [&] {
      (void)p.executor().compute_matrix(wl.test.inputs);
    });
  };
  const auto e2e_tput = [&](const core::OptimizedPipeline& p) {
    return throughput_rows_per_sec(
        rows, reps(), [&] { (void)p.predict(wl.test.inputs); });
  };

  const double ref_feat = throughput_rows_per_sec(
      rows, reps(), [&] { (void)reference_matrix(); });
  const double planned_feat = feature_tput(planned);
  const double tuned_feat = feature_tput(tuned);
  const double ref_e2e = throughput_rows_per_sec(rows, reps(), [&] {
    (void)planned.full_model().predict(reference_matrix());
  });
  const double planned_e2e = e2e_tput(planned);
  const double tuned_e2e = e2e_tput(tuned);

  TablePrinter table({"config", "feat rows/s", "e2e rows/s", "e2e speedup"});
  table.print_header();
  table.print_row({"reference", fmt("%.0f", ref_feat), fmt("%.0f", ref_e2e),
                   "1.00x"});
  table.print_row({"planned", fmt("%.0f", planned_feat),
                   fmt("%.0f", planned_e2e),
                   fmt("%.2fx", planned_e2e / ref_e2e)});
  table.print_row({"autotuned", fmt("%.0f", tuned_feat), fmt("%.0f", tuned_e2e),
                   fmt("%.2fx", tuned_e2e / ref_e2e)});

  const auto& ops_cfg = tuned.autotune_report().ops;
  std::printf("autotuned op config: lookup=%s block_rows=%u\n",
              kernels::variant_name(ops_cfg.lookup), ops_cfg.block_rows);

  // Bit-exact predictions: both arms feed the same model, so identical
  // features must give identical predictions to the last bit.
  const std::vector<double> pred_ref =
      planned.full_model().predict(reference_matrix());
  const std::vector<double> pred_planned = planned.predict(wl.test.inputs);
  std::size_t mismatches = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (pred_ref[r] != pred_planned[r]) ++mismatches;
  }
  std::printf("parity: %zu mismatched predictions (must be 0)\n", mismatches);

  check_trend(mismatches == 0, "planned predictions bit-exact with reference");
  check_trend(planned_feat >= 1.5 * ref_feat,
              "music feature stage >= 1.5x with planned assembly");
  check_trend(planned_e2e >= 1.3 * ref_e2e,
              "music end-to-end >= 1.3x over per-op-block reference");
  check_trend(tuned_e2e >= 0.95 * ref_e2e,
              "op-autotuned pipeline never loses to the forced reference");
}

}  // namespace

int main(int argc, char** argv) {
  parse_args(argc, argv);
  print_banner(
      "Feature-operator kernels (blocked TF-IDF, sparse GBDT, planned "
      "assembly)",
      "DESIGN.md §10 (feature layer under Figure 5's compiled config)");

  bench_tfidf();
  bench_sparse_gbdt();
  bench_music();

  if (trend() && failures > 0) {
    std::printf("\n%d trend assertion(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\ndone.\n");
  return 0;
}
