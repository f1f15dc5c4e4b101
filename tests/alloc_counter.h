#ifndef INVARNETX_TESTS_ALLOC_COUNTER_H_
#define INVARNETX_TESTS_ALLOC_COUNTER_H_

// Allocation counting hook for allocation-free assertions. Including this
// header replaces the binary's global allocation functions with counting
// delegates to malloc/free, so include it from exactly one translation unit
// per test binary. Only operator new is counted; deallocation stays
// untracked (frees need no counting).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace invarnetx::testing_alloc {

inline std::atomic<uint64_t> g_heap_allocations{0};

// Heap allocations made through operator new since process start, by any
// thread.
inline uint64_t HeapAllocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

inline void* CountedAlloc(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

inline void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, size ? size : 1) != 0) throw std::bad_alloc();
  return p;
}

// The nothrow forms (std::stable_sort's temporary buffer uses them) must be
// replaced too: every form here frees with free(), and a sanitizer flags
// memory from its own operator new released that way.
inline void* CountedAllocNoThrow(std::size_t size) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

inline void* CountedAlignedAllocNoThrow(std::size_t size,
                                        std::size_t align) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  return posix_memalign(&p, align, size ? size : 1) == 0 ? p : nullptr;
}

}  // namespace invarnetx::testing_alloc

void* operator new(std::size_t size) {
  return invarnetx::testing_alloc::CountedAlloc(size);
}
void* operator new[](std::size_t size) {
  return invarnetx::testing_alloc::CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return invarnetx::testing_alloc::CountedAlignedAlloc(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return invarnetx::testing_alloc::CountedAlignedAlloc(
      size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return invarnetx::testing_alloc::CountedAllocNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return invarnetx::testing_alloc::CountedAllocNoThrow(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return invarnetx::testing_alloc::CountedAlignedAllocNoThrow(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return invarnetx::testing_alloc::CountedAlignedAllocNoThrow(
      size, static_cast<std::size_t>(align));
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // INVARNETX_TESTS_ALLOC_COUNTER_H_
