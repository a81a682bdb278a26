// alloc_count.cpp — global operator new/delete replacements that count
// allocations for AllocationScope (alloc_count.h).
#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dynamips {

AllocationScope::AllocationScope() {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
}

AllocationScope::~AllocationScope() {
  g_count_allocs.store(false, std::memory_order_relaxed);
}

std::uint64_t AllocationScope::count() const {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace dynamips
