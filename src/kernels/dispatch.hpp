#pragma once

#include <cstdint>
#include <string>

namespace willump::serialize {
class Reader;
class Writer;
}

namespace willump::kernels {

/// Dense dot-product / GEMV kernel variant. Scalar is the bit-exact
/// reference (single accumulator, left-to-right — the summation order the
/// pre-kernel model code used); the others trade summation order for
/// throughput and agree with Scalar to ~1e-12 relative (see DESIGN.md §9).
enum class DotVariant : std::uint8_t {
  Scalar = 0,    // reference: one accumulator, strict left-to-right
  Unrolled = 1,  // four independent accumulators (ILP without intrinsics)
  Avx2 = 2,      // 256-bit FMA lanes (x86 with AVX2+FMA)
  Avx512 = 3,    // 512-bit FMA lanes (x86 with AVX-512F)
};

/// Forest-traversal kernel variant. RowWise is the reference (walk each row
/// through each tree with branches, the pre-kernel Tree::predict_row shape);
/// Blocked walks a block of rows through a tree level together, branch-free,
/// so the per-node dependency chains of different rows overlap. Both
/// accumulate per-row tree outputs in the same order, so they are bit-exact
/// equals, not tolerance equals.
enum class TreeVariant : std::uint8_t {
  RowWise = 0,
  Blocked = 1,
};

/// Upper bound on rows per traversal block (stack-buffer sizing).
inline constexpr std::uint32_t kMaxTreeBlock = 64;

/// Column count at or above which a sparse GBDT input skips the per-block
/// densify scratch and traverses the CSR rows directly. Wide TF-IDF blocks
/// blow the densify scratch out of L1/L2; compact CSR rows stay resident.
/// The autotuner pins this to 0 (always CSR) or UINT32_MAX (always densify)
/// per model after timing both on real data.
inline constexpr std::uint32_t kDefaultSparseCutoff = 2048;

/// Per-model kernel selection. Defaults come from native_config() (best
/// instruction set the CPU supports, untuned block size); the optimizer's
/// autotuner refines them and the values are serialized with the model, so
/// a loaded artifact reproduces the tuned pipeline's exact arithmetic.
struct KernelConfig {
  DotVariant dot = DotVariant::Unrolled;
  TreeVariant tree = TreeVariant::Blocked;
  std::uint32_t tree_block = 32;  // rows per block, clamped to [1, kMaxTreeBlock]
  // Sparse inputs with >= this many columns use the no-densify CSR
  // traversal; narrower ones densify per block. Any u32 is valid.
  std::uint32_t sparse_cutoff = kDefaultSparseCutoff;

  bool operator==(const KernelConfig&) const = default;
};

/// Vocabulary-lookup strategy for term-indexed feature ops (TF-IDF).
/// HashMap is the reference (heterogeneous unordered_map find); SortedVocab
/// binary-searches an index-sorted term permutation — fewer cache lines for
/// small vocabularies, no hashing. Both produce identical features.
enum class LookupVariant : std::uint8_t {
  HashMap = 0,
  SortedVocab = 1,
};

/// Hashed one-hot encoding strategy. Scalar is the reference (hash + append
/// per row inline); Batched precomputes the whole block's buckets into the
/// worker arena first, so the hash loop and the CSR append loop each stay
/// tight. Both produce identical features.
enum class OneHotVariant : std::uint8_t {
  Scalar = 0,
  Batched = 1,
};

/// Pipeline-level feature-operator selection, tuned by the op-level
/// autotuner and persisted in the artifact KERN section so load_model
/// cold-starts with the tuned feature path.
struct FeatureOpConfig {
  LookupVariant lookup = LookupVariant::HashMap;
  std::uint32_t block_rows = 256;  // rows per feature block, [1, 2^20]
  /// Read by nothing outside save/load_featureop_config: kept only because
  /// the WLMP KERN section carries its byte (loads still reject values > 1)
  /// and tools print it.
  bool zero_copy = true;
  OneHotVariant onehot = OneHotVariant::Scalar;

  bool operator==(const FeatureOpConfig&) const = default;
};

/// Upper bound on block_rows (sanity bound for deserialization).
inline constexpr std::uint32_t kMaxBlockRows = 1u << 20;

/// Whether this CPU can execute `v` (Scalar/Unrolled always can).
bool dot_supported(DotVariant v);

/// Best dot variant this CPU supports (probed once).
DotVariant best_supported_dot();

/// Downgrade `v` to the best supported variant at or below it, so an
/// artifact tuned on a wider machine still runs (within tolerance of the
/// recorded arithmetic) on a narrower one.
DotVariant effective_dot(DotVariant v);

/// Default config for this machine: best supported dot variant, blocked
/// tree traversal with the untuned default block size.
KernelConfig native_config();

const char* variant_name(DotVariant v);
const char* variant_name(TreeVariant v);
const char* variant_name(LookupVariant v);
const char* variant_name(OneHotVariant v);

/// Serialize/deserialize a config (fixed 10 bytes). load validates ranges
/// and throws SerializeError(CorruptData) on out-of-range values; it does
/// NOT clamp to this machine's capabilities — the recorded choice
/// round-trips bit-exactly and is downgraded only at dispatch time.
void save_kernel_config(serialize::Writer& w, const KernelConfig& c);
KernelConfig load_kernel_config(serialize::Reader& r);

/// Serialize/deserialize a feature-op config (fixed 7 bytes). Same
/// validation discipline as the kernel config.
void save_featureop_config(serialize::Writer& w, const FeatureOpConfig& c);
FeatureOpConfig load_featureop_config(serialize::Reader& r);

}  // namespace willump::kernels
