// Global operator new replacement that counts heap allocations per thread,
// so the traced run can report allocations per pointwise query without
// instrumenting the library. Storage still comes from malloc/free.

#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {
thread_local std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace perfbench {
std::uint64_t thread_allocations() { return g_allocations; }
}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
