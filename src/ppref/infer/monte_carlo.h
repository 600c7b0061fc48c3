/// \file monte_carlo.h
/// \brief Monte-Carlo estimators for labeled-RIM inference.
///
/// Samples rankings via the RIM generative process and averages indicators.
/// Used in benchmarks (E3) to contrast the exact TopProb algorithm with the
/// sampling alternative the paper's §6 alludes to for approximate answering.
/// The Bernoulli estimators run on the hard tier's one sampling core
/// (hard/world_pool.h, target disabled), so they share its seeding and its
/// thread-count invariance.

#ifndef PPREF_INFER_MONTE_CARLO_H_
#define PPREF_INFER_MONTE_CARLO_H_

#include <cstdint>

#include "ppref/common/deadline.h"
#include "ppref/hard/estimator.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/matching.h"
#include "ppref/infer/minmax_condition.h"
#include "ppref/infer/pattern.h"

namespace ppref::infer {

/// Options for the seeded Monte-Carlo entry points. Sampling is split into
/// fixed blocks of ~1k draws; block b uses an independent generator seeded
/// `HashCombine(seed, b)` and blocks are reduced in index order, so the
/// estimate depends only on `seed` and `samples` — never on the thread
/// count. That determinism is what lets the serve layer's degradation path
/// promise "repeat the request, get the same approximate answer".
struct McOptions {
  unsigned samples = 10000;
  /// Worker threads over sample blocks. 0 = auto (every hardware thread);
  /// clamped via ppref::ClampThreads, same contract as PatternProbOptions.
  unsigned threads = 1;
  std::uint64_t seed = 1;
  /// Optional stop conditions, polled between sample blocks; stopping
  /// throws DeadlineExceededError / CancelledError.
  const RunControl* control = nullptr;
};

/// `options` as a run of the hard tier's round loop with the target
/// disabled, at `block_samples` draws per seeded block.
hard::AdaptiveOptions FixedBudget(const McOptions& options,
                                  unsigned block_samples);

/// Seeded, optionally parallel estimate of Pr(g | σ, Π, λ) from
/// `options.samples` draws; identical for every `options.threads` value
/// (see McOptions).
hard::BernoulliEstimate PatternProbMonteCarlo(const LabeledRimModel& model,
                                              const LabelPattern& pattern,
                                              const McOptions& options);

/// Seeded, optionally parallel estimate of Pr(g ∧ φ).
hard::BernoulliEstimate PatternMinMaxProbMonteCarlo(
    const LabeledRimModel& model, const LabelPattern& pattern,
    const std::vector<LabelId>& tracked, const MinMaxCondition& condition,
    const McOptions& options);

/// The sample-modal top matching: the γ realized as the top matching most
/// often across the sampled rankings (MostProbableTopMatching's sampling
/// analogue, used by the serve layer's degradation path).
struct McTopMatching {
  /// Modal matching; ties break to the lexicographically smallest γ, empty
  /// when no sample matched the pattern. Deterministic given (seed, samples).
  Matching matching;
  /// Fraction of samples whose top matching was `matching`.
  double frequency = 0.0;
  /// Bernoulli standard error of `frequency`.
  double std_error = 0.0;
};

/// Estimates the most probable top matching by sampling. Same determinism
/// contract as the other McOptions entry points.
McTopMatching TopMatchingMonteCarlo(const LabeledRimModel& model,
                                    const LabelPattern& pattern,
                                    const McOptions& options);

}  // namespace ppref::infer

#endif  // PPREF_INFER_MONTE_CARLO_H_
