#include "data/matrix.hpp"

#include <cassert>
#include <stdexcept>

namespace willump::data {

DenseMatrix DenseMatrix::from_rows(const std::vector<DenseVector>& rows) {
  if (rows.empty()) return {};
  DenseMatrix m(rows.size(), rows[0].dim());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].dim() != m.cols_) {
      throw std::invalid_argument("DenseMatrix::from_rows: ragged rows");
    }
    auto dst = m.mutable_row(r);
    auto src = rows[r].values();
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return m;
}

std::vector<double> DenseMatrix::column(std::size_t c) const {
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

DenseMatrix DenseMatrix::select_rows(std::span<const std::size_t> idx) const {
  DenseMatrix out(idx.size(), cols_);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    auto src = row(idx[i]);
    auto dst = out.mutable_row(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return out;
}

DenseMatrix DenseMatrix::hconcat(const DenseMatrix& a, const DenseMatrix& b) {
  // Only a 0x0 operand is the identity: a zero-row block keeps its width.
  if (a.rows() == 0 && a.cols() == 0) return b;
  if (b.rows() == 0 && b.cols() == 0) return a;
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("DenseMatrix::hconcat: row count mismatch");
  }
  DenseMatrix out(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    auto dst = out.mutable_row(r);
    auto ra = a.row(r);
    auto rb = b.row(r);
    std::copy(ra.begin(), ra.end(), dst.begin());
    std::copy(rb.begin(), rb.end(), dst.begin() + static_cast<std::ptrdiff_t>(a.cols()));
  }
  return out;
}

CsrMatrix CsrMatrix::from_rows(std::int32_t cols, const std::vector<SparseVector>& rows) {
  CsrMatrix m(cols);
  for (const auto& r : rows) m.append_row(r);
  return m;
}

void CsrMatrix::append_row(std::span<const SparseEntry> entries) {
  for (const auto& e : entries) {
    indices_.push_back(e.index);
    values_.push_back(e.value);
  }
  indptr_.push_back(indices_.size());
}

CsrMatrix::RowView CsrMatrix::row(std::size_t r) const {
  const std::size_t lo = indptr_[r];
  const std::size_t hi = indptr_[r + 1];
  return {std::span<const std::int32_t>(indices_.data() + lo, hi - lo),
          std::span<const double>(values_.data() + lo, hi - lo)};
}

SparseVector CsrMatrix::row_vector(std::size_t r) const {
  SparseVector v(cols_);
  auto rv = row(r);
  for (std::size_t i = 0; i < rv.nnz(); ++i) v.push_back(rv.indices[i], rv.values[i]);
  return v;
}

CsrMatrix CsrMatrix::select_rows(std::span<const std::size_t> idx) const {
  CsrMatrix out(cols_);
  for (std::size_t i : idx) {
    auto rv = row(i);
    for (std::size_t k = 0; k < rv.nnz(); ++k) {
      out.indices_.push_back(rv.indices[k]);
      out.values_.push_back(rv.values[k]);
    }
    out.indptr_.push_back(out.indices_.size());
  }
  return out;
}

CsrMatrix CsrMatrix::hconcat(const CsrMatrix& a, const CsrMatrix& b) {
  // Only a 0x0 operand is the identity: a zero-row block keeps its width.
  if (a.rows() == 0 && a.cols() == 0) return b;
  if (b.rows() == 0 && b.cols() == 0) return a;
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("CsrMatrix::hconcat: row count mismatch");
  }
  CsrMatrix out(a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    auto ra = a.row(r);
    for (std::size_t k = 0; k < ra.nnz(); ++k) {
      out.indices_.push_back(ra.indices[k]);
      out.values_.push_back(ra.values[k]);
    }
    auto rb = b.row(r);
    for (std::size_t k = 0; k < rb.nnz(); ++k) {
      out.indices_.push_back(rb.indices[k] + a.cols());
      out.values_.push_back(rb.values[k]);
    }
    out.indptr_.push_back(out.indices_.size());
  }
  return out;
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix out(rows(), static_cast<std::size_t>(cols_));
  for (std::size_t r = 0; r < rows(); ++r) {
    auto rv = row(r);
    for (std::size_t k = 0; k < rv.nnz(); ++k) {
      out(r, static_cast<std::size_t>(rv.indices[k])) = rv.values[k];
    }
  }
  return out;
}

std::size_t FeatureMatrix::rows() const {
  return is_dense() ? dense().rows() : sparse().rows();
}

std::size_t FeatureMatrix::cols() const {
  return is_dense() ? dense().cols() : static_cast<std::size_t>(sparse().cols());
}

FeatureMatrix FeatureMatrix::select_rows(std::span<const std::size_t> idx) const {
  if (is_dense()) return FeatureMatrix(dense().select_rows(idx));
  return FeatureMatrix(sparse().select_rows(idx));
}

CsrMatrix FeatureMatrix::to_csr() const {
  if (is_sparse()) return sparse();
  const auto& d = dense();
  CsrMatrix out(static_cast<std::int32_t>(d.cols()));
  std::vector<SparseEntry> entries;
  for (std::size_t r = 0; r < d.rows(); ++r) {
    entries.clear();
    auto rv = d.row(r);
    for (std::size_t c = 0; c < rv.size(); ++c) {
      if (rv[c] != 0.0) {
        entries.push_back({static_cast<std::int32_t>(c), rv[c]});
      }
    }
    out.append_row(entries);
  }
  return out;
}

FeatureMatrix FeatureMatrix::hconcat(const FeatureMatrix& a, const FeatureMatrix& b) {
  if (a.rows() == 0 && a.cols() == 0) return b;
  if (b.rows() == 0 && b.cols() == 0) return a;
  if (a.is_dense() && b.is_dense()) {
    return FeatureMatrix(DenseMatrix::hconcat(a.dense(), b.dense()));
  }
  return FeatureMatrix(CsrMatrix::hconcat(a.to_csr(), b.to_csr()));
}

FeatureMatrix FeatureMatrix::hconcat_all(std::span<const FeatureMatrix> blocks) {
  FeatureMatrix out;
  for (const auto& b : blocks) out = hconcat(out, b);
  return out;
}

}  // namespace willump::data
