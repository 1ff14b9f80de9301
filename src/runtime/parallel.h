// Deterministic data-parallel loop: parallel_for.
//
// The library parallelizes at one level: across independent units of work
// (the components of one legalization, the designs of a suite). Numeric
// kernels inside a unit are plain serial loops, so a unit's result never
// depends on which thread ran it.
//
// Determinism contract
// --------------------
// Results are bitwise-identical for every thread count, including 1.
// A range [begin, end) with grain g is split into ceil(n/g) fixed chunks;
// the layout depends only on (n, g), never on the thread count or on
// scheduling. Bodies must write disjoint state per index (one slot per
// component, per design), so which thread runs a chunk cannot show in the
// result. Reductions fold per-unit results on the calling thread after the
// loop, in index order.
//
// Nesting: a parallel_for inside a chunk body runs its chunks inline on the
// calling thread (Scheduler::run holds that rule and counts the chunks in
// `sched.nested_inline`).
#pragma once

#include <algorithm>
#include <cstddef>

#include "runtime/runtime.h"

namespace mch::runtime {

/// Number of fixed chunks for a range of n items at the given grain.
inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  return (n + grain - 1) / grain;
}

/// Invokes fn(chunk_begin, chunk_end) over consecutive subranges of
/// [begin, end), each at most `grain` long. Chunks run concurrently when
/// the global Runtime has more than one thread; fn must write disjoint
/// state per index. Exceptions from fn propagate to the caller.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t chunks = chunk_count(end - begin, grain);
  const auto chunk = [&](std::size_t c) {
    const std::size_t lo = begin + c * grain;
    fn(lo, std::min(lo + grain, end));
  };
  Scheduler* sched = Runtime::instance().scheduler();
  if (sched == nullptr || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) chunk(c);
    return;
  }
  sched->run(chunks, chunk);
}

}  // namespace mch::runtime
