// Global operator new/delete replaced for this binary only: every heap
// allocation made by the simulator library counts its call and its bytes
// in relaxed atomics, so allocations per event are exact on sequential and
// threaded runs alike. Memory still comes from malloc/free.

#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

void count(std::size_t n) {
  g_calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  count(n);
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler h = std::get_new_handler();
    if (!h) throw std::bad_alloc();
    h();
  }
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  count(n);
  const std::size_t a = static_cast<std::size_t>(al) < sizeof(void*)
                            ? sizeof(void*)
                            : static_cast<std::size_t>(al);
  if (n == 0) n = 1;
  for (;;) {
    void* p = nullptr;
    if (posix_memalign(&p, a, n) == 0) return p;
    std::new_handler h = std::get_new_handler();
    if (!h) throw std::bad_alloc();
    h();
  }
}

}  // namespace

namespace perfbench {

AllocCount alloc_count() {
  return {g_calls.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned(n, a);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_aligned(n, a);
  } catch (...) {
    return nullptr;
  }
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
