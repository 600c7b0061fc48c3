/// \file ucq_evaluator.h
/// \brief Exact evaluation of unions of itemwise CQs over RIM-PPDs.
///
/// conf(Q₁ ∨ ... ∨ Q_q) factorizes over sessions by independence. Within a
/// session, each disjunct contributes a pattern-matching event (its §4.4
/// reduction), and Pr(at least one event) is computed by inclusion–exclusion
/// over conjunctions of pattern events, built with infer::Conjoin (label-
/// disjoint unions, since the disjuncts quantify their matchings
/// independently). With q fixed this runs in polynomial data complexity —
/// a constructive instance of the paper's §6 "larger fragments of FO"
/// direction.

#ifndef PPREF_PPD_UCQ_EVALUATOR_H_
#define PPREF_PPD_UCQ_EVALUATOR_H_

#include <vector>

#include "ppref/ppd/evaluator.h"
#include "ppref/ppd/ppd.h"
#include "ppref/query/ucq.h"

namespace ppref::ppd {

/// conf_Q([E]) for a Boolean UCQ. Disjuncts without p-atoms evaluate
/// deterministically (a true one short-circuits to 1). Throws SchemaError
/// when some p-atom-bearing disjunct is not itemwise. `options` forwards to
/// every inclusion–exclusion PatternProb call (plan reuse, matching-level
/// parallelism).
double EvaluateBooleanUnion(const RimPpd& ppd, const query::UnionQuery& ucq,
                            const infer::PatternProbOptions& options = {});

/// EvaluateBooleanUnion routed through a shared serve::Server: each
/// session's 2^t - 1 inclusion–exclusion conjunctions are submitted as one
/// deduplicated batch and the signed sum is reduced in mask order, so the
/// result is bit-identical to the serial path while repeated conjunction
/// events (across sessions and across queries) hit the server's caches.
/// Throws std::runtime_error carrying the status text when any conjunction
/// is not answered exactly (shed by admission control, failed, or degraded
/// to Monte-Carlo): the confidence would otherwise be silently wrong.
double EvaluateBooleanUnion(const RimPpd& ppd, const query::UnionQuery& ucq,
                            serve::Server& server);

/// Q(E) for a non-Boolean UCQ: possible answers across all disjuncts with
/// their union confidence, sorted by decreasing confidence.
std::vector<Answer> EvaluateUnionQuery(const RimPpd& ppd,
                                       const query::UnionQuery& ucq);

/// Enumeration oracle: conf by possible-world enumeration (any disjunct
/// satisfied). Exponential; for tests and benchmarks.
double EvaluateBooleanUnionByEnumeration(const RimPpd& ppd,
                                         const query::UnionQuery& ucq,
                                         double max_worlds = 1e6);

}  // namespace ppref::ppd

#endif  // PPREF_PPD_UCQ_EVALUATOR_H_
