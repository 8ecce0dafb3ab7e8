// Counting operator new replacements for the allocation gates: every heap
// allocation in the process bumps one counter, so a delta of zero around a
// measured region proves the region is allocation-free — closures, FEL
// growth, scratch buffers, all of it. Deletes are not counted; steady state
// is defined by allocations alone.
//
// The language forbids declaring the replacements inline, so this header
// defines them outright: include it in exactly one translation unit of a
// binary (bench_event_hotpath.cc, tests/alloc_test.cc).
#ifndef UNISON_BENCH_COUNTING_NEW_H_
#define UNISON_BENCH_COUNTING_NEW_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace unison::bench {

inline std::atomic<uint64_t> g_heap_allocs{0};

// Heap allocations this process has made so far.
inline uint64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

inline void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace unison::bench

void* operator new(std::size_t size) {
  return unison::bench::CountedAlloc(size);
}
void* operator new[](std::size_t size) {
  return unison::bench::CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  unison::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // UNISON_BENCH_COUNTING_NEW_H_
