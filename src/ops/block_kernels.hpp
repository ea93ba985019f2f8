#pragma once

#include <span>

#include "common/arena.hpp"
#include "data/matrix.hpp"
#include "data/value.hpp"
#include "kernels/dispatch.hpp"

namespace willump::ops {

/// Tuned feature-op choices threaded through the blocked execution path
/// (the executor owns the pipeline-level FeatureOpConfig). `arena`, when
/// set, is the calling worker's per-batch bump allocator: ops may stage
/// trivially-destructible scratch (bucket arrays, densify buffers) there
/// instead of the heap; the executor resets it between batches. Null means
/// no arena is threaded (interpreted engine, tests) — ops must fall back
/// to their own allocation.
struct BlockExecContext {
  kernels::FeatureOpConfig cfg;
  common::Arena* arena = nullptr;
};

/// Mixin for ops whose output is a dense block of known width: the executor
/// preallocates the downstream model's whole input matrix and the op writes
/// its columns straight into it — no per-op DenseMatrix, no hconcat copy.
class DenseBlockWriter {
 public:
  virtual ~DenseBlockWriter() = default;

  /// Write `rows` output rows into `dst`, a row-major window with `stride`
  /// doubles per row; dst points at this op's first column of row 0. The
  /// values written must be bit-identical to eval_batch's dense output.
  virtual void write_block(std::span<const data::Value> inputs,
                           const BlockExecContext& ctx, double* dst,
                           std::size_t rows, std::size_t stride) const = 0;
};

/// Mixin for ops that produce sparse blocks: emit the whole batch as CSR in
/// one pass using the tuned lookup strategy and per-worker scratch. The
/// executor emits straight into the result (single-generator plans) or into
/// the op's node slot, whose block the one-pass concat then streams. Rows
/// must be bit-identical to eval_batch's sparse output.
class SparseBlockEmitter {
 public:
  virtual ~SparseBlockEmitter() = default;

  /// Emit into a caller-owned CSR whose backing arrays persist across
  /// batches: the op reset()s `out` to its own column count (keeping the
  /// arrays' capacity) and appends this batch's rows, so the steady-state
  /// request path reuses capacity instead of allocating a fresh matrix per
  /// batch.
  virtual void emit_into(std::span<const data::Value> inputs,
                         const BlockExecContext& ctx,
                         data::CsrMatrix& out) const = 0;
};

}  // namespace willump::ops
