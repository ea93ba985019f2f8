#include "ops/encoders.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/hash.hpp"
#include "serialize/buffer.hpp"

namespace willump::ops {

namespace {

/// View a numeric column as doubles (copies for int columns).
data::DoubleColumn as_doubles(const data::Column& c, const char* who) {
  switch (c.type()) {
    case data::ColumnType::Double:
      return c.doubles();
    case data::ColumnType::Int: {
      data::DoubleColumn out;
      out.reserve(c.size());
      for (auto v : c.ints()) out.push_back(static_cast<double>(v));
      return out;
    }
    default:
      throw std::invalid_argument(std::string(who) + ": expects numeric column");
  }
}

}  // namespace

std::int32_t OneHotHashOp::bucket_of(std::int64_t key) const {
  const std::uint64_t h =
      common::hash_u64(static_cast<std::uint64_t>(key) ^ salt_);
  return static_cast<std::int32_t>(h % static_cast<std::uint64_t>(n_buckets_));
}

data::Value OneHotHashOp::eval_batch(std::span<const data::Value> inputs) const {
  if (inputs.size() != 1 || !inputs[0].is_column() ||
      inputs[0].column().type() != data::ColumnType::Int) {
    throw std::invalid_argument("one_hot_hash: expects one int column");
  }
  const auto& keys = inputs[0].column().ints();
  data::CsrMatrix out(n_buckets_);
  data::SparseEntry e[1];
  for (std::int64_t k : keys) {
    e[0] = {bucket_of(k), 1.0};
    out.append_row(std::span<const data::SparseEntry>(e, 1));
  }
  return data::Value(data::FeatureMatrix(std::move(out)));
}

void OneHotHashOp::emit_into(std::span<const data::Value> inputs,
                             const BlockExecContext& ctx,
                             data::CsrMatrix& out) const {
  if (inputs.size() != 1 || !inputs[0].is_column() ||
      inputs[0].column().type() != data::ColumnType::Int) {
    throw std::invalid_argument("one_hot_hash: expects one int column");
  }
  const auto& keys = inputs[0].column().ints();
  out.reset(n_buckets_);
  out.reserve(keys.size(), keys.size());  // exactly one entry per row
  data::SparseEntry e[1];
  if (ctx.cfg.onehot == kernels::OneHotVariant::Batched) {
    // Hash the whole block into a staged bucket array first (worker arena
    // when threaded, reused thread-local otherwise), then run the CSR
    // append as its own tight loop. Identical buckets to the scalar path.
    std::span<std::int32_t> buckets;
    thread_local std::vector<std::int32_t> fallback;
    if (ctx.arena != nullptr) {
      buckets = ctx.arena->make_span<std::int32_t>(keys.size());
    } else {
      fallback.resize(keys.size());
      buckets = fallback;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      buckets[i] = bucket_of(keys[i]);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      e[0] = {buckets[i], 1.0};
      out.append_row(std::span<const data::SparseEntry>(e, 1));
    }
    return;
  }
  for (std::int64_t k : keys) {
    e[0] = {bucket_of(k), 1.0};
    out.append_row(std::span<const data::SparseEntry>(e, 1));
  }
}

data::Value NumericColumnsOp::eval_batch(std::span<const data::Value> inputs) const {
  if (inputs.empty()) {
    throw std::invalid_argument("numeric_columns: expects at least one column");
  }
  std::vector<data::DoubleColumn> cols;
  cols.reserve(inputs.size());
  for (const auto& v : inputs) {
    if (!v.is_column()) {
      throw std::invalid_argument("numeric_columns: expects raw columns");
    }
    cols.push_back(as_doubles(v.column(), "numeric_columns"));
  }
  const std::size_t n = cols[0].size();
  data::DenseMatrix out(n, cols.size());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    if (cols[c].size() != n) {
      throw std::invalid_argument("numeric_columns: column length mismatch");
    }
    for (std::size_t r = 0; r < n; ++r) out(r, c) = cols[c][r];
  }
  return data::Value(data::FeatureMatrix(std::move(out)));
}

void NumericColumnsOp::write_block(std::span<const data::Value> inputs,
                                   const BlockExecContext& ctx, double* dst,
                                   std::size_t rows, std::size_t stride) const {
  (void)ctx;
  if (inputs.empty()) {
    throw std::invalid_argument("numeric_columns: expects at least one column");
  }
  // Column-at-a-time straight into the shared block: no DoubleColumn
  // temporaries, no per-op DenseMatrix. Same int->double casts as
  // eval_batch, so the written values are bit-identical.
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    if (!inputs[c].is_column()) {
      throw std::invalid_argument("numeric_columns: expects raw columns");
    }
    const auto& col = inputs[c].column();
    if (col.size() != rows) {
      throw std::invalid_argument("numeric_columns: column length mismatch");
    }
    switch (col.type()) {
      case data::ColumnType::Double: {
        const auto& v = col.doubles();
        for (std::size_t r = 0; r < rows; ++r) dst[r * stride + c] = v[r];
        break;
      }
      case data::ColumnType::Int: {
        const auto& v = col.ints();
        for (std::size_t r = 0; r < rows; ++r) {
          dst[r * stride + c] = static_cast<double>(v[r]);
        }
        break;
      }
      default:
        throw std::invalid_argument("numeric_columns: expects numeric column");
    }
  }
}

data::Value BucketizeOp::eval_batch(std::span<const data::Value> inputs) const {
  if (inputs.size() != 1 || !inputs[0].is_column()) {
    throw std::invalid_argument("bucketize: expects one numeric column");
  }
  const auto vals = as_doubles(inputs[0].column(), "bucketize");
  data::DoubleColumn out;
  out.reserve(vals.size());
  for (double v : vals) {
    const auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), v);
    out.push_back(static_cast<double>(it - boundaries_.begin()));
  }
  return data::Value(data::Column(std::move(out)));
}

std::string ColumnMathOp::name() const {
  switch (kind_) {
    case Kind::Add: return "col_add";
    case Kind::Sub: return "col_sub";
    case Kind::Mul: return "col_mul";
    case Kind::Div: return "col_div";
    case Kind::Log1p: return "col_log1p";
  }
  return "col_math";
}

data::Value ColumnMathOp::eval_batch(std::span<const data::Value> inputs) const {
  const bool unary = kind_ == Kind::Log1p;
  if (inputs.size() != (unary ? 1u : 2u)) {
    throw std::invalid_argument("col_math: wrong arity");
  }
  const auto a = as_doubles(inputs[0].column(), "col_math");
  data::DoubleColumn out(a.size());
  if (unary) {
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = std::log1p(std::max(a[i], 0.0));
    return data::Value(data::Column(std::move(out)));
  }
  const auto b = as_doubles(inputs[1].column(), "col_math");
  if (b.size() != a.size()) {
    throw std::invalid_argument("col_math: column length mismatch");
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    switch (kind_) {
      case Kind::Add: out[i] = a[i] + b[i]; break;
      case Kind::Sub: out[i] = a[i] - b[i]; break;
      case Kind::Mul: out[i] = a[i] * b[i]; break;
      case Kind::Div: out[i] = b[i] != 0.0 ? a[i] / b[i] : 0.0; break;
      case Kind::Log1p: break;  // unreachable
    }
  }
  return data::Value(data::Column(std::move(out)));
}

void OneHotHashOp::save(serialize::Writer& w) const {
  w.i32(n_buckets_);
  w.u64(salt_);
  w.str(label_);
}

void NumericColumnsOp::save(serialize::Writer& w) const { w.str(label_); }

void BucketizeOp::save(serialize::Writer& w) const { w.doubles(boundaries_); }

void ColumnMathOp::save(serialize::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind_));
}

}  // namespace willump::ops
