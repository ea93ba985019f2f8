#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace willump::common {

/// Bump-pointer arena for per-batch request scratch (the abseil-style
/// container/memory split: containers describe layout, the arena owns the
/// bytes). Allocation is a pointer bump within the current chunk; `reset()`
/// rewinds every chunk cursor without freeing, so after the first few
/// batches have grown the chunk list to the workload's high-water mark the
/// steady-state request path performs zero heap allocations through it.
///
/// Only trivially-destructible payloads belong here: reset() never runs
/// destructors. Not thread-safe — one arena per worker thread (the serving
/// layer hands each worker its own instance).
class Arena {
 public:
  explicit Arena(std::size_t first_chunk_bytes = 1u << 18)
      : next_chunk_bytes_(first_chunk_bytes < 64 ? 64 : first_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocate `bytes` aligned to `align` (a power of two). The pointer is
  /// valid until reset() or destruction.
  void* allocate(std::size_t bytes,
                 std::size_t align = alignof(std::max_align_t)) {
    if (cur_ < chunks_.size()) {
      std::uint8_t* p = aligned_cursor(align);
      if (p != nullptr && bytes <= chunk_remaining(p)) {
        off_ = static_cast<std::size_t>(p - chunks_[cur_].data.get()) + bytes;
        bytes_in_use_ += bytes;
        return p;
      }
      // Try later retained chunks before growing.
      while (++cur_ < chunks_.size()) {
        off_ = 0;
        std::uint8_t* q = aligned_cursor(align);
        if (q != nullptr && bytes <= chunk_remaining(q)) {
          off_ = static_cast<std::size_t>(q - chunks_[cur_].data.get()) + bytes;
          bytes_in_use_ += bytes;
          return q;
        }
      }
    }
    return allocate_slow(bytes, align);
  }

  /// Typed uninitialized span of `n` elements (T must be trivially
  /// destructible — reset() runs no destructors).
  template <typename T>
  std::span<T> make_span(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without destructors");
    return {static_cast<T*>(allocate(n * sizeof(T), alignof(T))), n};
  }

  /// Rewind all cursors, retaining every chunk for reuse.
  void reset() {
    cur_ = 0;
    off_ = 0;
    bytes_in_use_ = 0;
  }

  /// Free every chunk (a fresh arena).
  void release() {
    chunks_.clear();
    chunks_.shrink_to_fit();
    reset();
  }

  /// Bytes handed out since the last reset().
  std::size_t bytes_in_use() const { return bytes_in_use_; }
  /// Total bytes reserved from the heap across all retained chunks.
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.size;
    return total;
  }
  /// Heap allocations the arena itself has performed (chunk acquisitions);
  /// flat across batches once the chunk list has reached steady state.
  std::uint64_t chunk_allocations() const { return chunk_allocations_; }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
  };

  std::uint8_t* aligned_cursor(std::size_t align) const {
    // Align the absolute address, not the chunk offset: chunk bases carry
    // only operator new[]'s alignment, which can be smaller than `align`.
    const Chunk& c = chunks_[cur_];
    const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(c.data.get());
    const std::uintptr_t aligned = (base + off_ + (align - 1)) & ~(align - 1);
    if (aligned - base > c.size) return nullptr;
    return reinterpret_cast<std::uint8_t*>(aligned);
  }

  std::size_t chunk_remaining(const std::uint8_t* cursor) const {
    const Chunk& c = chunks_[cur_];
    return c.size - static_cast<std::size_t>(cursor - c.data.get());
  }

  void* allocate_slow(std::size_t bytes, std::size_t align) {
    std::size_t want = bytes + align;
    if (want < next_chunk_bytes_) want = next_chunk_bytes_;
    Chunk c;
    c.data = std::make_unique_for_overwrite<std::uint8_t[]>(want);
    c.size = want;
    ++chunk_allocations_;
    next_chunk_bytes_ = want * 2;  // geometric growth caps chunk count
    chunks_.push_back(std::move(c));
    cur_ = chunks_.size() - 1;
    off_ = 0;
    std::uint8_t* p = aligned_cursor(align);
    off_ = static_cast<std::size_t>(p - chunks_[cur_].data.get()) + bytes;
    bytes_in_use_ += bytes;
    return p;
  }

  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;   // chunk the cursor lives in
  std::size_t off_ = 0;   // byte offset within chunks_[cur_]
  std::size_t next_chunk_bytes_;
  std::size_t bytes_in_use_ = 0;
  std::uint64_t chunk_allocations_ = 0;
};

}  // namespace willump::common
