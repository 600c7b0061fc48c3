#include "ppref/hard/estimator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ppref/common/check.h"
#include "ppref/hard/sampler.h"

namespace ppref::hard {

BernoulliEstimate EstimateFromBernoulliCount(std::uint64_t hits,
                                             std::uint64_t samples) {
  PPREF_CHECK(samples > 0);
  BernoulliEstimate result;
  const double p =
      static_cast<double>(hits) / static_cast<double>(samples);
  result.estimate = p;
  result.std_error = std::sqrt(p * (1.0 - p) / static_cast<double>(samples));
  return result;
}

void WelfordAccumulator::Merge(const WelfordAccumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n_a = static_cast<double>(count_);
  const double n_b = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n_a + n_b;
  mean_ += delta * (n_b / total);
  m2_ += other.m2_ + delta * delta * (n_a * n_b / total);
  count_ += other.count_;
}

double WelfordAccumulator::std_error() const {
  if (count_ < 2) return 0.0;
  return std::sqrt(variance() / static_cast<double>(count_));
}

unsigned AdaptiveRoundBlocks(unsigned round) {
  if (round == 0) return 1;
  const unsigned doubling = round - 1 < 5 ? 1u << (round - 1) : 32u;
  return doubling;
}

std::vector<AdaptiveEstimate> EstimateBernoulliAdaptiveBatch(
    const AdaptiveOptions& options, std::size_t queries,
    const BatchBlockHits& block_hits) {
  PPREF_CHECK(options.max_samples > 0);
  PPREF_CHECK(options.block_samples > 0);
  std::vector<AdaptiveEstimate> out(queries);
  const unsigned total_blocks =
      SeededBlockCount(options.max_samples, options.block_samples);
  // Without a stop that can fire, rounds would only split integer sums.
  const bool stoppable =
      options.target_half_width > 0.0 || options.budget != nullptr;
  std::vector<std::uint64_t> hits(queries, 0);
  // Which queries still evaluate incoming draws. Written only between
  // rounds; the parallel block bodies read it.
  std::vector<char> active(queries, 1);
  std::size_t active_count = queries;

  unsigned next_block = 0;
  unsigned round = 0;
  while (next_block < total_blocks && active_count > 0) {
    const unsigned count =
        stoppable
            ? std::min(AdaptiveRoundBlocks(round), total_blocks - next_block)
            : total_blocks;
    // round_hits[i * queries + q]: query q's hits in the round's i-th block.
    std::vector<unsigned> round_hits(std::size_t{count} * queries, 0);
    RunSeededBlocks(next_block, count, options.max_samples,
                    options.block_samples, options.seed, options.threads,
                    options.control,
                    [&](const SampleBlock& block, Rng& rng) {
                      // Bodies count per draw; a block-private buffer keeps
                      // threads off each other's cache lines.
                      std::vector<unsigned> local(queries, 0);
                      block_hits(rng, block.begin, block.end, active.data(),
                                 local.data());
                      std::copy(local.begin(), local.end(),
                                round_hits.begin() +
                                    (block.index - next_block) * queries);
                    });
    next_block += count;
    ++round;
    const std::uint64_t n =
        SeededBlockAt(next_block - 1, options.max_samples,
                      options.block_samples)
            .end;

    const bool budget_expired = next_block < total_blocks &&
                                options.budget != nullptr &&
                                options.budget->Expired();
    for (std::size_t q = 0; q < queries; ++q) {
      if (active[q] == 0) continue;
      for (unsigned i = 0; i < count; ++i) {
        hits[q] += round_hits[std::size_t{i} * queries + q];
      }
      static_cast<BernoulliEstimate&>(out[q]) =
          EstimateFromBernoulliCount(hits[q], n);
      out[q].n_samples = n;
      if (options.target_half_width > 0.0 && n >= options.min_samples &&
          options.z * out[q].std_error <= options.target_half_width) {
        out[q].target_met = true;
        active[q] = 0;
        --active_count;
      } else if (budget_expired) {
        out[q].deadline_limited = true;
      }
    }
    if (budget_expired) break;
  }
  return out;
}

AdaptiveEstimate EstimateBernoulliAdaptive(
    const AdaptiveOptions& options,
    const std::function<unsigned(Rng&, unsigned, unsigned)>& block_hits) {
  return EstimateBernoulliAdaptiveBatch(
             options, 1,
             [&](Rng& rng, unsigned begin, unsigned end, const char*,
                 unsigned* hits) { *hits = block_hits(rng, begin, end); })
      .front();
}

}  // namespace ppref::hard
