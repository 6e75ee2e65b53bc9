// Counting global operator new, linked only into the benchmark binary.
// It counts while enabled and is enabled only around the drain of the
// traced run; otherwise it is a plain malloc.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

void alloc_counting(bool on);
AllocCounts alloc_counts();

}  // namespace perfbench
