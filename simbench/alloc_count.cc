// Counting replacements of the global allocation functions.
//
// Every heap allocation in the benchmark process (coroutine frames,
// shared_ptr control blocks, oversized event callables, vectors) goes
// through these, so allocations per simulated op can be read as the
// difference of two snapshots. The benchmark process runs a single thread,
// so plain counters suffice.
#include <cstdlib>
#include <new>

#include "simbench/bench.h"

namespace {

uint64_t g_allocs = 0;
uint64_t g_bytes = 0;

void* Count(void* p, std::size_t n) {
  ++g_allocs;
  g_bytes += n;
  return p;
}

void* AllocOrThrow(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return Count(p, n);
}

void* AlignedOrNull(std::size_t n, std::align_val_t al) {
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  return p == nullptr ? nullptr : Count(p, n);
}

void* AlignedOrThrow(std::size_t n, std::align_val_t al) {
  void* p = AlignedOrNull(n, al);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace simbench {

AllocCount Allocs() { return AllocCount{g_allocs, g_bytes}; }

}  // namespace simbench

void* operator new(std::size_t n) { return AllocOrThrow(n); }
void* operator new[](std::size_t n) { return AllocOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  return p == nullptr ? nullptr : Count(p, n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return AlignedOrThrow(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return AlignedOrThrow(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return AlignedOrNull(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return AlignedOrNull(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
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
