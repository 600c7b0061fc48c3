/// \file estimator.h
/// \brief `ppref::hard` — variance-adaptive Monte-Carlo estimation with
/// early stopping, following Ping/Stoyanovich/Kimelfeld ("Supporting Hard
/// Queries over Probabilistic Preferences").
///
/// The estimator samples in *rounds* of seeded blocks (sampler.h) and
/// evaluates its stopping rule only at round boundaries, on the cumulative
/// prefix of blocks. The round schedule — 1, 1, 2, 4, … blocks, capped —
/// is a pure function of the sample budget, so which draws contribute to an
/// early-stopped estimate depends only on (seed, target, budget), never on
/// thread count or wall clock. Three stop conditions:
///
///  1. **Precision**: the CI half-width `z · std_error` reaches the target
///     (`target_met`). Deterministic; such answers are cacheable.
///  2. **Budget cap**: `max_samples` exhausted. Also deterministic.
///  3. **Deadline**: the optional `budget` deadline expired between rounds
///     (`deadline_limited`). Honest — the answer reports the wider
///     std_error it actually achieved — but wall-clock dependent, so
///     callers must never cache it.
///
/// A disabled target (`target_half_width <= 0`) never stops early, which
/// makes the adaptive path reduce *bit-exactly* to the fixed-budget seeded
/// estimate over the same block decomposition. When no stop can fire
/// (target disabled, no `budget`), every block runs in one round: integer
/// hit sums cannot change with the partition, and all blocks fan out at once.
///
/// This is the tree's one round loop, for N queries over one block stream.
/// Every Bernoulli estimator runs on it (see sampler.h for the list); the
/// fixed-budget ones disable the target and pass no budget.

#ifndef PPREF_HARD_ESTIMATOR_H_
#define PPREF_HARD_ESTIMATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "ppref/common/deadline.h"
#include "ppref/common/random.h"

namespace ppref::hard {

/// A Bernoulli point estimate: hits/n with the binomial standard error
/// sqrt(p(1-p)/n) — the one formula every MC estimator in the tree shares.
struct BernoulliEstimate {
  double estimate = 0.0;
  double std_error = 0.0;
};

/// hits/samples with its standard error. `samples` must be positive.
BernoulliEstimate EstimateFromBernoulliCount(std::uint64_t hits,
                                             std::uint64_t samples);

/// Numerically stable running mean/variance (Welford), mergeable in block
/// order (Chan's pairwise update) so block-parallel accumulation reduces to
/// the same bits as a serial pass in block-index order.
class WelfordAccumulator {
 public:
  void Add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  /// Folds `other` (sampled after this accumulator's draws) in; the merge
  /// order is part of the determinism contract.
  void Merge(const WelfordAccumulator& other);

  std::uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two draws.
  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  /// Standard error of the mean: sqrt(variance / n); 0 for n < 2.
  double std_error() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Controls for one adaptive run.
struct AdaptiveOptions {
  /// Stop once `z * std_error <= target_half_width` (after `min_samples`).
  /// <= 0 disables the precision stop: the run always spends `max_samples`.
  double target_half_width = 0.0;
  /// Normal quantile of the confidence interval (default: two-sided 95%).
  double z = 1.959963984540054;
  /// The precision stop is not evaluated below this many samples — a
  /// handful of lucky draws must not fake convergence.
  unsigned min_samples = 256;
  /// Hard sample cap; also fixes the block decomposition.
  unsigned max_samples = 1u << 18;
  /// Samples per seeded block (see sampler.h).
  unsigned block_samples = 1024;
  /// Worker threads over the blocks of one round (0 = auto). The estimate
  /// is identical for every value.
  unsigned threads = 1;
  std::uint64_t seed = 1;
  /// Throwing cancel/deadline checks, polled once per block.
  const RunControl* control = nullptr;
  /// Non-throwing deadline polled between rounds: expiry stops the run with
  /// `deadline_limited = true` and whatever precision was reached.
  const Deadline* budget = nullptr;
};

/// What an adaptive run returned and what it paid for it.
struct AdaptiveEstimate : BernoulliEstimate {
  std::uint64_t n_samples = 0;
  /// The precision target was reached (implies a cacheable answer).
  bool target_met = false;
  /// The deadline budget stopped sampling first; never cache such answers.
  bool deadline_limited = false;
};

/// Number of blocks in adaptive round `round`: 1, 1, 2, 4, …, capped at 32.
/// Small early rounds give early-stop resolution; doubling keeps the number
/// of stopping-rule evaluations logarithmic in the budget.
unsigned AdaptiveRoundBlocks(unsigned round);

/// The block body of a batched run: draws the samples [begin, end) of one
/// block from `rng` and, for every query q with `active[q] != 0`, adds the
/// draws that hit q to `hits[q]` (zeroed on entry). Called once per block;
/// `active` changes only between rounds, and evaluating a query must consume
/// no randomness, so every query sees the draws a solo run would.
using BatchBlockHits = std::function<void(
    Rng& rng, unsigned begin, unsigned end, const char* active,
    unsigned* hits)>;

/// The adaptive round loop for `queries` Bernoulli estimates over one shared
/// seeded block stream. Each query applies the stopping rule to its own
/// hits and leaves the active set once its target is met; `options.budget`
/// expiry marks every still-active query `deadline_limited`. Options apply
/// per query. Result order = query order.
std::vector<AdaptiveEstimate> EstimateBernoulliAdaptiveBatch(
    const AdaptiveOptions& options, std::size_t queries,
    const BatchBlockHits& block_hits);

/// The one-query case: `block_hits(rng, begin, end)` counts the draws in
/// [begin, end) that hit.
AdaptiveEstimate EstimateBernoulliAdaptive(
    const AdaptiveOptions& options,
    const std::function<unsigned(Rng&, unsigned, unsigned)>& block_hits);

}  // namespace ppref::hard

#endif  // PPREF_HARD_ESTIMATOR_H_
