#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {

// Runs are single-threaded (engine_threads=1), so plain counters suffice.
bool g_counting = false;
perfbench::AllocCounts g_counts;

void* counted_alloc(std::size_t size) {
  if (g_counting) {
    ++g_counts.count;
    g_counts.bytes += size;
  }
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

namespace perfbench {

void alloc_counting(bool on) { g_counting = on; }
AllocCounts alloc_counts() { return g_counts; }

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
