// Replaces the global allocation functions with malloc-backed versions that
// count per thread while counting is switched on. Unlike a process-wide
// atomic, the thread-local counter adds no shared cache line to the
// runtime's threads, so the untraced end-to-end runs are not perturbed.
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {
thread_local bool t_counting = false;
thread_local std::uint64_t t_allocs = 0;

void* counted(std::size_t size) {
  if (t_counting) ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  if (t_counting) ++t_allocs;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}
}  // namespace

namespace pathbench {
void alloc_counting(bool on) noexcept { t_counting = on; }
std::uint64_t thread_allocs() noexcept { return t_allocs; }
}  // namespace pathbench

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (t_counting) ++t_allocs;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (t_counting) ++t_allocs;
  return std::malloc(size ? size : 1);
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
