// Counts heap allocations by replacing the global operator new in any binary
// that links the benchmark (process.allocs_per_pkt).  One plain increment per
// allocation: the processes are single-threaded.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "workloads.hpp"

namespace {
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tangobench {

std::uint64_t alloc_count() noexcept { return g_allocs; }

}  // namespace tangobench
