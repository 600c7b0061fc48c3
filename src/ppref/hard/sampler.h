/// \file sampler.h
/// \brief `ppref::hard` — the seeded block decomposition shared by every
/// Monte-Carlo estimator in the tree.
///
/// All sampling in this codebase follows one discipline, and this header is
/// its single implementation point: draws are partitioned into fixed-size
/// blocks, block `b` runs on a private `Rng(HashCombine(seed, b))` stream,
/// blocks execute in parallel but reduce in block-index order. An estimate
/// is therefore a pure function of (seed, sample budget, block size) — never
/// of the thread count — which is what lets caches replay it, lets the
/// adaptive estimator (estimator.h) stop at any block boundary without
/// perturbing the draws before it, and lets the world pool (world_pool.h)
/// prove its answers bit-identical to per-query sampling.
///
/// Every Bernoulli estimate runs on estimator.h's one round loop: the hard
/// tier and degraded serve answers, `infer`'s seeded estimators (ranking
/// worlds via world_pool.h, block 1024) and `ppd`'s world sampler (block
/// 256). Histogram reductions (TopMatchingMonteCarlo, ConsensusRanking)
/// call RunSeededBlocks directly.

#ifndef PPREF_HARD_SAMPLER_H_
#define PPREF_HARD_SAMPLER_H_

#include <algorithm>
#include <cstdint>

#include "ppref/common/deadline.h"
#include "ppref/common/hash.h"
#include "ppref/common/parallel.h"
#include "ppref/common/random.h"

namespace ppref::hard {

/// One block of the sample space: absolute block index plus the half-open
/// sample range it covers under the run's total budget.
struct SampleBlock {
  unsigned index = 0;
  unsigned begin = 0;
  unsigned end = 0;
};

/// Number of blocks a budget of `samples` draws occupies at `block_samples`
/// per block (the final block may be short). Computed in 64 bits, so a
/// budget near UINT_MAX does not wrap to zero blocks.
inline unsigned SeededBlockCount(unsigned samples, unsigned block_samples) {
  return static_cast<unsigned>(
      (std::uint64_t{samples} + block_samples - 1) / block_samples);
}

/// The sample range of absolute block `b < SeededBlockCount(...)` under a
/// total budget of `samples`; `end` is clamped in 64 bits for the same
/// reason.
inline SampleBlock SeededBlockAt(unsigned b, unsigned samples,
                                 unsigned block_samples) {
  SampleBlock block;
  block.index = b;
  block.begin = b * block_samples;
  block.end = static_cast<unsigned>(std::min<std::uint64_t>(
      std::uint64_t{block.begin} + block_samples, samples));
  return block;
}

/// Runs blocks [first_block, first_block + block_count) in parallel, each on
/// its own `Rng(HashCombine(seed, b))` stream. `body(block, rng)` must write
/// its reduction state into a slot owned by `block.index` — the caller
/// merges slots in index order, which is what keeps the reduction
/// thread-count-invariant. `control`, when non-null, is polled once per
/// block (throwing Check()).
template <typename Body>
void RunSeededBlocks(unsigned first_block, unsigned block_count,
                     unsigned samples, unsigned block_samples,
                     std::uint64_t seed, unsigned threads,
                     const RunControl* control, Body&& body) {
  ParallelFor(block_count, ClampThreads(threads), [&](std::size_t i) {
    if (control != nullptr) control->Check();
    const unsigned b = first_block + static_cast<unsigned>(i);
    const SampleBlock block = SeededBlockAt(b, samples, block_samples);
    Rng rng(HashCombine(seed, b));
    body(block, rng);
  });
}

}  // namespace ppref::hard

#endif  // PPREF_HARD_SAMPLER_H_
