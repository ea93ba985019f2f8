#include "kernels/dispatch.hpp"

#include "serialize/buffer.hpp"
#include "serialize/error.hpp"

namespace willump::kernels {

namespace {

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
bool cpu_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
bool cpu_has_avx512f() { return __builtin_cpu_supports("avx512f"); }
#else
bool cpu_has_avx2_fma() { return false; }
bool cpu_has_avx512f() { return false; }
#endif

}  // namespace

bool dot_supported(DotVariant v) {
  switch (v) {
    case DotVariant::Scalar:
    case DotVariant::Unrolled:
      return true;
    case DotVariant::Avx2:
      return cpu_has_avx2_fma();
    case DotVariant::Avx512:
      return cpu_has_avx512f() && cpu_has_avx2_fma();
  }
  return false;
}

DotVariant best_supported_dot() {
  // Probed once: the answer cannot change within a process.
  static const DotVariant best = [] {
    if (dot_supported(DotVariant::Avx512)) return DotVariant::Avx512;
    if (dot_supported(DotVariant::Avx2)) return DotVariant::Avx2;
    return DotVariant::Unrolled;
  }();
  return best;
}

DotVariant effective_dot(DotVariant v) {
  while (!dot_supported(v)) {
    v = static_cast<DotVariant>(static_cast<std::uint8_t>(v) - 1);
  }
  return v;
}

KernelConfig native_config() {
  KernelConfig c;
  c.dot = best_supported_dot();
  return c;
}

const char* variant_name(DotVariant v) {
  switch (v) {
    case DotVariant::Scalar: return "scalar";
    case DotVariant::Unrolled: return "unrolled";
    case DotVariant::Avx2: return "avx2";
    case DotVariant::Avx512: return "avx512";
  }
  return "?";
}

const char* variant_name(TreeVariant v) {
  switch (v) {
    case TreeVariant::RowWise: return "rowwise";
    case TreeVariant::Blocked: return "blocked";
  }
  return "?";
}

const char* variant_name(LookupVariant v) {
  switch (v) {
    case LookupVariant::HashMap: return "hashmap";
    case LookupVariant::SortedVocab: return "sorted";
  }
  return "?";
}

const char* variant_name(OneHotVariant v) {
  switch (v) {
    case OneHotVariant::Scalar: return "scalar";
    case OneHotVariant::Batched: return "batched";
  }
  return "?";
}

void save_kernel_config(serialize::Writer& w, const KernelConfig& c) {
  w.u8(static_cast<std::uint8_t>(c.dot));
  w.u8(static_cast<std::uint8_t>(c.tree));
  w.u32(c.tree_block);
  w.u32(c.sparse_cutoff);
}

KernelConfig load_kernel_config(serialize::Reader& r) {
  KernelConfig c;
  const std::uint8_t dot = r.u8();
  const std::uint8_t tree = r.u8();
  const std::uint32_t block = r.u32();
  const std::uint32_t cutoff = r.u32();
  if (dot > static_cast<std::uint8_t>(DotVariant::Avx512) ||
      tree > static_cast<std::uint8_t>(TreeVariant::Blocked) || block == 0 ||
      block > kMaxTreeBlock) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "kernel config out of range");
  }
  c.dot = static_cast<DotVariant>(dot);
  c.tree = static_cast<TreeVariant>(tree);
  c.tree_block = block;
  c.sparse_cutoff = cutoff;  // any u32 is a valid threshold
  return c;
}

void save_featureop_config(serialize::Writer& w, const FeatureOpConfig& c) {
  w.u8(static_cast<std::uint8_t>(c.lookup));
  w.u32(c.block_rows);
  w.u8(c.zero_copy ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(c.onehot));
}

FeatureOpConfig load_featureop_config(serialize::Reader& r) {
  FeatureOpConfig c;
  const std::uint8_t lookup = r.u8();
  const std::uint32_t block_rows = r.u32();
  const std::uint8_t zero_copy = r.u8();
  const std::uint8_t onehot = r.u8();
  if (lookup > static_cast<std::uint8_t>(LookupVariant::SortedVocab) ||
      block_rows == 0 || block_rows > kMaxBlockRows || zero_copy > 1 ||
      onehot > static_cast<std::uint8_t>(OneHotVariant::Batched)) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "feature-op config out of range");
  }
  c.lookup = static_cast<LookupVariant>(lookup);
  c.block_rows = block_rows;
  c.zero_copy = zero_copy != 0;
  c.onehot = static_cast<OneHotVariant>(onehot);
  return c;
}

}  // namespace willump::kernels
