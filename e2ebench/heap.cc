// Heap accounting for the system's memory metric. The benchmark replaces the
// global operator new/delete with malloc/free plus a count of the bytes held
// (as malloc_usable_size reports them) and their high-water mark. A workload
// resets the mark just before it builds its deployment, so the peak above
// the level at that point is the deployment's own memory: the oracle's
// inputs and models are built before it, and the process-lifetime state of
// the allocator (freed pages it keeps) never counts.
//
// The benchmark is single-threaded, and so is the simulated system, so plain
// counters suffice. The nothrow forms are replaced too, so that every pair of
// new and delete goes through the same allocator (std::stable_sort's buffer
// uses them). Over-aligned forms keep the library's operators and are not
// counted; nothing in src/ declares an over-aligned type.
#include <malloc.h>

#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

size_t g_live = 0;
size_t g_peak = 0;

void* Allocate(size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live += malloc_usable_size(p);
  if (g_live > g_peak) g_peak = g_live;
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  g_live -= malloc_usable_size(p);
  std::free(p);
}

}  // namespace

void* operator new(size_t n) { return Allocate(n); }
void* operator new[](size_t n) { return Allocate(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](size_t n, const std::nothrow_t& t) noexcept { return operator new(n, t); }
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, size_t) noexcept { Release(p); }
void operator delete[](void* p, size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Release(p); }

namespace e2ebench {

size_t HeapLiveBytes() { return g_live; }
size_t HeapPeakBytes() { return g_peak; }
void ResetHeapPeak() { g_peak = g_live; }

}  // namespace e2ebench
