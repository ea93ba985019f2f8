#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

namespace willump::serialize {

/// Process-wide content-addressed pool of immutable heavy fitted state
/// (TF-IDF models, feature tables, flattened forests). Deserializers intern
/// the object they just parsed keyed by the payload bytes it came from: when
/// another replica — or a later `swap_model` generation — loads byte-identical
/// state, it receives the same live `shared_ptr<const T>` instead of a
/// private copy, so N replicas cost ~1x heavy state instead of Nx.
///
/// Entries are weak: the pool keeps nothing alive. Content identity is the
/// (kind, fnv1a-64, crc32, size) quadruple of the payload bytes — not a full
/// byte compare — which is collision-safe far beyond fleet scale but is an
/// assumption, so the pool can be disabled (set_enabled(false)) to fall back
/// to private copies.
class InternPool {
 public:
  static InternPool& instance();

  /// Dedup `fresh` (just parsed from `bytes`): returns the pooled live
  /// object for identical content, else registers and returns `fresh`.
  /// `kind` partitions the key space per type ("tfidf", "table", ...).
  template <typename T>
  std::shared_ptr<const T> intern(std::string_view kind,
                                  std::span<const std::uint8_t> bytes,
                                  std::shared_ptr<const T> fresh) {
    if (!enabled() || fresh == nullptr) return fresh;
    auto held = lookup_or_store(
        kind, bytes,
        std::static_pointer_cast<const void>(fresh));
    return std::static_pointer_cast<const T>(std::move(held));
  }

  struct Stats {
    std::uint64_t hits = 0;    // loads that reused a live pooled object
    std::uint64_t misses = 0;  // loads that registered fresh state
  };
  Stats stats() const;
  void clear();  // drop all entries (stats too); mainly for benchmarks

  /// Process-wide switch, on by default.
  static bool enabled();
  static void set_enabled(bool on);

 private:
  InternPool() = default;
  std::shared_ptr<const void> lookup_or_store(std::string_view kind,
                                              std::span<const std::uint8_t> bytes,
                                              std::shared_ptr<const void> fresh);
};

}  // namespace willump::serialize
