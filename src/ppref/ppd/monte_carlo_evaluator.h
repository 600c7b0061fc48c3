/// \file monte_carlo_evaluator.h
/// \brief Monte-Carlo query evaluation over RIM-PPDs: sample one ranking per
/// session, materialize the world, evaluate the query. Works for any CQ or
/// UCQ (including the #P-hard side of the dichotomy) at the cost of sampling
/// error — the approximate-answering direction the paper's §6 raises.
///
/// `EstimateBoolean` (fixed budget) and `ApproximateBoolean{,Union}` (an
/// (ε, δ) guarantee: N = ⌈ln(2/δ) / (2ε²)⌉ worlds land within ε of
/// conf_Q([E]) w.p. ≥ 1 − δ, by Hoeffding) share one seeded world sampler
/// on the hard tier's round loop, so every answer depends on the seed only.

#ifndef PPREF_PPD_MONTE_CARLO_EVALUATOR_H_
#define PPREF_PPD_MONTE_CARLO_EVALUATOR_H_

#include <cstdint>

#include "ppref/common/status.h"
#include "ppref/infer/monte_carlo.h"
#include "ppref/ppd/ppd.h"
#include "ppref/query/cq.h"
#include "ppref/query/ucq.h"

namespace ppref::ppd {

/// Seeded, optionally parallel estimate of conf_Q([E]) for a Boolean CQ from
/// `options.samples` worlds. Worlds are sampled in fixed blocks seeded from
/// (options.seed, block) and fanned out over ClampThreads(options.threads)
/// workers (0 = auto), so the estimate is identical for every thread count —
/// see infer::McOptions.
hard::BernoulliEstimate EstimateBoolean(const RimPpd& ppd,
                                        const query::ConjunctiveQuery& query,
                                        const infer::McOptions& options);

/// An (ε, δ) additive approximation result.
struct ApproxResult {
  double estimate = 0.0;
  double epsilon = 0.0;
  double delta = 0.0;
  unsigned samples = 0;
};

/// OK when ε and δ lie in (0, 1) and their Hoeffding sample count fits the
/// `unsigned` sample counter; otherwise kInvalidArgument naming the problem.
Status ValidateHoeffding(double epsilon, double delta);

/// Number of Hoeffding samples guaranteeing additive error ε with
/// probability 1 − δ. PPREF_CHECKs ValidateHoeffding.
unsigned HoeffdingSamples(double epsilon, double delta);

/// Approximates conf_Q([E]) for a Boolean CQ within ±ε w.p. ≥ 1 − δ, from
/// HoeffdingSamples(ε, δ) worlds on one thread. Same `seed`, same answer.
ApproxResult ApproximateBoolean(const RimPpd& ppd,
                                const query::ConjunctiveQuery& query,
                                double epsilon, double delta,
                                std::uint64_t seed);

/// The same guarantee for Boolean UCQs.
ApproxResult ApproximateBooleanUnion(const RimPpd& ppd,
                                     const query::UnionQuery& ucq,
                                     double epsilon, double delta,
                                     std::uint64_t seed);

}  // namespace ppref::ppd

#endif  // PPREF_PPD_MONTE_CARLO_EVALUATOR_H_
