#include "ppref/infer/monte_carlo.h"

#include <map>
#include <vector>

#include "ppref/common/check.h"
#include "ppref/hard/sampler.h"
#include "ppref/hard/world_pool.h"
#include "ppref/infer/matching.h"
#include "ppref/rim/sampler.h"

namespace ppref::infer {
namespace {

/// Samples per seeding block of the McOptions entry points. Fixed so the
/// block decomposition (and therefore every estimate) is independent of the
/// thread count; large enough that per-block Rng setup is noise.
constexpr unsigned kMcBlockSamples = 1024;

}  // namespace

hard::AdaptiveOptions FixedBudget(const McOptions& options,
                                  unsigned block_samples) {
  hard::AdaptiveOptions fixed;
  fixed.max_samples = options.samples;
  fixed.block_samples = block_samples;
  fixed.threads = options.threads;
  fixed.seed = options.seed;
  fixed.control = options.control;
  return fixed;
}

hard::BernoulliEstimate PatternProbMonteCarlo(const LabeledRimModel& model,
                                              const LabelPattern& pattern,
                                              const McOptions& options) {
  return hard::EstimatePatternProbsPooled(
             model, {&pattern}, FixedBudget(options, kMcBlockSamples))
      .front();
}

hard::BernoulliEstimate PatternMinMaxProbMonteCarlo(
    const LabeledRimModel& model, const LabelPattern& pattern,
    const std::vector<LabelId>& tracked, const MinMaxCondition& condition,
    const McOptions& options) {
  PPREF_CHECK(condition != nullptr);
  return hard::EstimateRankingEventsPooled(
             model.model(), 1,
             [&](std::size_t, const rim::Ranking& tau) {
               return Matches(pattern, model.labeling(), tau) &&
                      condition(
                          RealizedMinMax(model.labeling(), tau, tracked));
             },
             FixedBudget(options, kMcBlockSamples))
      .front();
}

McTopMatching TopMatchingMonteCarlo(const LabeledRimModel& model,
                                    const LabelPattern& pattern,
                                    const McOptions& options) {
  PPREF_CHECK(options.samples > 0);
  const unsigned blocks =
      hard::SeededBlockCount(options.samples, kMcBlockSamples);
  // Per-block histograms over realized top matchings, merged in block order.
  // std::map keys are ordered, so the modal pick (ties to the smallest γ)
  // is deterministic in (seed, samples) and thread-count independent.
  std::vector<std::map<Matching, unsigned>> histograms(blocks);
  hard::RunSeededBlocks(
      0, blocks, options.samples, kMcBlockSamples, options.seed,
      options.threads, options.control,
      [&](const hard::SampleBlock& block, Rng& rng) {
        for (unsigned s = block.begin; s < block.end; ++s) {
          const rim::Ranking tau = rim::SampleRanking(model.model(), rng);
          const std::optional<Matching> top =
              TopMatching(pattern, model.labeling(), tau);
          if (top.has_value()) ++histograms[block.index][*top];
        }
      });
  std::map<Matching, unsigned> merged;
  for (const auto& histogram : histograms) {
    for (const auto& [gamma, count] : histogram) merged[gamma] += count;
  }
  McTopMatching result;
  unsigned best = 0;
  for (const auto& [gamma, count] : merged) {
    if (count > best) {
      best = count;
      result.matching = gamma;
    }
  }
  const hard::BernoulliEstimate frequency =
      hard::EstimateFromBernoulliCount(best, options.samples);
  result.frequency = frequency.estimate;
  result.std_error = frequency.std_error;
  return result;
}

}  // namespace ppref::infer
