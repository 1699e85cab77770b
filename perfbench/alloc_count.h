// Per-thread heap allocation counters fed by the benchmark's replacement
// operator new (alloc_count.cc).

#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocCount {
  uint64_t calls = 0;  // operator new calls on this thread so far
  uint64_t bytes = 0;  // bytes requested by those calls
};

// Cumulative counts for the calling thread; subtract two reads to count the
// allocations a bracketed call made.
AllocCount ThreadAllocs();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
