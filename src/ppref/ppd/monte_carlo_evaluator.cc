#include "ppref/ppd/monte_carlo_evaluator.h"

#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <vector>

#include "ppref/common/check.h"
#include "ppref/db/preference_instance.h"
#include "ppref/query/eval.h"
#include "ppref/rim/sampler.h"

namespace ppref::ppd {
namespace {

/// Worlds per seeded block: smaller than the ranking samplers' 1024 because
/// database worlds are costlier to materialize than rankings.
constexpr unsigned kBlockSamples = 256;

/// Estimates Pr(holds(world)) over sampled possible worlds of the PPD: one
/// ranking per session, materialized with the o-instances.
hard::BernoulliEstimate EstimateWorldEvent(
    const RimPpd& ppd, const infer::McOptions& options,
    const std::function<bool(const db::Database&)>& holds) {
  return hard::EstimateBernoulliAdaptive(
      infer::FixedBudget(options, kBlockSamples),
      [&](Rng& rng, unsigned begin, unsigned end) {
        unsigned hits = 0;
        for (unsigned s = begin; s < end; ++s) {
          db::Database world(ppd.schema());
          for (const std::string& symbol : ppd.schema().OSymbols()) {
            for (const db::Tuple& tuple : ppd.OInstance(symbol)) {
              world.Add(symbol, tuple);
            }
          }
          for (const std::string& symbol : ppd.schema().PSymbols()) {
            for (const auto& [session, model] :
                 ppd.PInstance(symbol).sessions()) {
              const rim::Ranking tau = rim::SampleRanking(model.model(), rng);
              std::vector<db::Value> order;
              order.reserve(tau.size());
              for (rim::Position p = 0; p < tau.size(); ++p) {
                order.push_back(model.ItemOf(tau.At(p)));
              }
              db::AddRankingAsPairs(world, symbol, session, order);
            }
          }
          if (holds(world)) ++hits;
        }
        return hits;
      });
}

/// ⌈ln(2/δ) / (2ε²)⌉, unbounded.
double HoeffdingBound(double epsilon, double delta) {
  return std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon));
}

}  // namespace

hard::BernoulliEstimate EstimateBoolean(const RimPpd& ppd,
                                        const query::ConjunctiveQuery& query,
                                        const infer::McOptions& options) {
  PPREF_CHECK(query.IsBoolean());
  return EstimateWorldEvent(ppd, options, [&](const db::Database& world) {
    return query::IsSatisfiable(query, world);
  });
}

Status ValidateHoeffding(double epsilon, double delta) {
  std::ostringstream message;
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    message << "epsilon must be in (0, 1), got " << epsilon;
  } else if (!(delta > 0.0 && delta < 1.0)) {
    message << "delta must be in (0, 1), got " << delta;
  } else if (HoeffdingBound(epsilon, delta) >
             std::numeric_limits<unsigned>::max()) {
    message << "epsilon " << epsilon << " and delta " << delta << " need "
            << HoeffdingBound(epsilon, delta) << " samples, over the limit of "
            << std::numeric_limits<unsigned>::max();
  } else {
    return Status::Ok();
  }
  return Status::InvalidArgument(message.str());
}

unsigned HoeffdingSamples(double epsilon, double delta) {
  const Status valid = ValidateHoeffding(epsilon, delta);
  PPREF_CHECK_MSG(valid.ok(), valid.message());
  return static_cast<unsigned>(HoeffdingBound(epsilon, delta));
}

ApproxResult ApproximateBoolean(const RimPpd& ppd,
                                const query::ConjunctiveQuery& query,
                                double epsilon, double delta,
                                std::uint64_t seed) {
  return ApproximateBooleanUnion(ppd, query::UnionQuery({query}), epsilon,
                                 delta, seed);
}

ApproxResult ApproximateBooleanUnion(const RimPpd& ppd,
                                     const query::UnionQuery& ucq,
                                     double epsilon, double delta,
                                     std::uint64_t seed) {
  PPREF_CHECK(ucq.IsBoolean());
  ApproxResult result;
  result.epsilon = epsilon;
  result.delta = delta;
  result.samples = HoeffdingSamples(epsilon, delta);
  infer::McOptions options;
  options.samples = result.samples;
  options.seed = seed;
  result.estimate =
      EstimateWorldEvent(ppd, options, [&](const db::Database& world) {
        for (const query::ConjunctiveQuery& disjunct : ucq.disjuncts()) {
          if (query::IsSatisfiable(disjunct, world)) return true;
        }
        return false;
      }).estimate;
  return result;
}

}  // namespace ppref::ppd
