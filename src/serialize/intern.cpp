#include "serialize/intern.hpp"

#include <atomic>
#include <mutex>
#include <unordered_map>

#include "common/hash.hpp"
#include "serialize/buffer.hpp"

namespace willump::serialize {

namespace {

struct ContentKey {
  std::uint64_t kind_hash;
  std::uint64_t content_hash;  // fnv1a-64 over the payload bytes
  std::uint32_t crc;           // independent second hash (crc32)
  std::uint64_t size;

  bool operator==(const ContentKey&) const = default;
};

struct ContentKeyHash {
  std::size_t operator()(const ContentKey& k) const {
    std::uint64_t h = k.kind_hash;
    h = common::hash_combine(h, k.content_hash);
    h = common::hash_combine(h, k.crc);
    h = common::hash_combine(h, k.size);
    return static_cast<std::size_t>(h);
  }
};

struct PoolState {
  std::mutex mu;
  std::unordered_map<ContentKey, std::weak_ptr<const void>, ContentKeyHash> map;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

PoolState& state() {
  static PoolState s;
  return s;
}

std::atomic<bool> g_enabled{true};

}  // namespace

InternPool& InternPool::instance() {
  static InternPool pool;
  return pool;
}

bool InternPool::enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void InternPool::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::shared_ptr<const void> InternPool::lookup_or_store(
    std::string_view kind, std::span<const std::uint8_t> bytes,
    std::shared_ptr<const void> fresh) {
  const ContentKey key{common::fnv1a(kind),
                       common::fnv1a(std::string_view(
                           reinterpret_cast<const char*>(bytes.data()),
                           bytes.size())),
                       crc32(bytes), bytes.size()};
  PoolState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(key);
  if (it != s.map.end()) {
    if (auto live = it->second.lock()) {
      ++s.hits;
      return live;
    }
  }
  ++s.misses;
  s.map[key] = fresh;
  // Opportunistically sweep a few dead entries so the map stays bounded
  // across many swap generations without a full O(n) pass per load.
  if (s.map.size() > 64) {
    auto sweep = s.map.begin();
    for (int i = 0; i < 8 && sweep != s.map.end(); ++i) {
      if (sweep->second.expired()) {
        sweep = s.map.erase(sweep);
      } else {
        ++sweep;
      }
    }
  }
  return fresh;
}

InternPool::Stats InternPool::stats() const {
  PoolState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return {s.hits, s.misses};
}

void InternPool::clear() {
  PoolState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.map.clear();
  s.hits = 0;
  s.misses = 0;
}

}  // namespace willump::serialize
