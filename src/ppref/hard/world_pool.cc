#include "ppref/hard/world_pool.h"

#include "ppref/infer/matching.h"
#include "ppref/rim/sampler.h"

namespace ppref::hard {

std::vector<AdaptiveEstimate> EstimateRankingEventsPooled(
    const rim::RimModel& model, std::size_t events,
    const std::function<bool(std::size_t, const rim::Ranking&)>& holds,
    const AdaptiveOptions& options) {
  return EstimateBernoulliAdaptiveBatch(
      options, events,
      [&](Rng& rng, unsigned begin, unsigned end, const char* active,
          unsigned* hits) {
        for (unsigned s = begin; s < end; ++s) {
          // One world for the whole batch; evaluation consumes no
          // randomness, so the stream matches a per-query run exactly.
          const rim::Ranking tau = rim::SampleRanking(model, rng);
          for (std::size_t e = 0; e < events; ++e) {
            if (active[e] != 0 && holds(e, tau)) ++hits[e];
          }
        }
      });
}

std::vector<AdaptiveEstimate> EstimatePatternProbsPooled(
    const infer::LabeledRimModel& model,
    const std::vector<const infer::LabelPattern*>& patterns,
    const AdaptiveOptions& options) {
  return EstimateRankingEventsPooled(
      model.model(), patterns.size(),
      [&](std::size_t q, const rim::Ranking& tau) {
        return infer::Matches(*patterns[q], model.labeling(), tau);
      },
      options);
}

}  // namespace ppref::hard
