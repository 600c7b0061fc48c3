/// \file evaluator.h
/// \brief Query evaluation over RIM-PPDs — §3.3 semantics, Thm 4.4 algorithm.
///
/// `EvaluateBoolean` computes conf_Q([E]) for itemwise Boolean CQs in
/// polynomial data complexity by combining the §4.4 reduction with TopProb
/// and session independence:
///   conf = 1 − Π_{s ∈ r_Q} (1 − Pr(s ⊨ Q^s)).
/// `EvaluateQuery` handles non-Boolean CQs by enumerating possible answers
/// and computing each answer's confidence.

#ifndef PPREF_PPD_EVALUATOR_H_
#define PPREF_PPD_EVALUATOR_H_

#include <vector>

#include "ppref/common/status.h"
#include "ppref/db/database.h"
#include "ppref/infer/top_prob.h"
#include "ppref/ppd/ppd.h"
#include "ppref/query/cq.h"
#include "ppref/serve/server.h"

namespace ppref::ppd {

/// A possible answer with its confidence (marginal probability).
struct Answer {
  db::Tuple tuple;
  double confidence = 0.0;
};

/// conf_Q([E]) for a Boolean CQ. Queries without p-atoms evaluate
/// deterministically over the o-instances (0 or 1). Throws SchemaError when
/// the query has p-atoms but is not itemwise — use the possible-worlds or
/// Monte-Carlo evaluators for those.
double EvaluateBoolean(const RimPpd& ppd, const query::ConjunctiveQuery& query);

/// EvaluateBoolean with per-session inference options: each session compiles
/// one DP plan reused across its candidate matchings, and `options.threads`
/// fans those matchings out (bit-identical ordered reduction).
double EvaluateBoolean(const RimPpd& ppd, const query::ConjunctiveQuery& query,
                       const infer::PatternProbOptions& options);

/// EvaluateBoolean routed through a shared serve::Server: the per-session
/// pattern probabilities are submitted as one deduplicated batch, so
/// repeated sessions (same model, same pattern) are computed once, plans
/// and results are reused across *queries* via the server's caches, and
/// unique work runs on the server's worker pool. Bit-identical to the
/// serial evaluator (the server's determinism guarantee plus session-order
/// reduction). Throws std::runtime_error carrying the status text when any
/// session's response is not OK — shed by admission control (a batch past
/// `max_in_flight`), failed, or degraded to Monte-Carlo — since the exact
/// confidence cannot then be formed; use TryEvaluateBoolean to accept
/// approximate answers or to get the status back instead.
double EvaluateBoolean(const RimPpd& ppd, const query::ConjunctiveQuery& query,
                       serve::Server& server);

/// conf_Q([E]) through the fault-tolerant serving boundary.
struct BooleanResult {
  double confidence = 0.0;
  /// True when at least one session probability is a Monte-Carlo fallback
  /// (server degradation policy); `std_error` then bounds the confidence's
  /// error: since ∂(1 − Π(1 − p_i))/∂p_i = Π_{j≠i}(1 − p_j) ≤ 1, the
  /// first-order error is at most the sum of the sessions' standard errors.
  bool approximate = false;
  double std_error = 0.0;
};

/// The Status-returning twin of the Server overload of EvaluateBoolean:
/// never throws and never aborts on operational failures. Non-Boolean or
/// non-itemwise queries map to kInvalidArgument (instead of SchemaError);
/// `control` is applied to every per-session request, so a deadline or
/// cancellation surfaces as the first failing session's status. When the
/// server degrades to Monte-Carlo, the result is marked approximate with a
/// conservative error bound (see BooleanResult).
StatusOr<BooleanResult> TryEvaluateBoolean(
    const RimPpd& ppd, const query::ConjunctiveQuery& query,
    serve::Server& server, const serve::RequestControl& control = {});

/// EvaluateBoolean with the independent per-session TopProb instances
/// computed on `threads` workers (§6's CPU-parallelism direction;
/// `threads == 0` means auto, per ppref::ClampThreads). Work
/// assignment is static, so the result is bit-identical to the serial
/// evaluator. Session-level parallelism composes poorly with matching-level
/// parallelism on small machines, so sessions run their matchings serially
/// here; prefer the options overload above to parallelize within few large
/// sessions instead.
double EvaluateBooleanParallel(const RimPpd& ppd,
                               const query::ConjunctiveQuery& query,
                               unsigned threads);

/// Q(E): every possible answer with positive confidence, sorted by
/// decreasing confidence (ties: first-found order). The query must be
/// itemwise under every head substitution, which holds whenever the query
/// itself is itemwise.
std::vector<Answer> EvaluateQuery(const RimPpd& ppd,
                                  const query::ConjunctiveQuery& query);

/// The "possibility database": o-instances plus, per session, every ordered
/// pair of distinct items. Every possible world's p-relations are subsets,
/// so evaluating a CQ here enumerates a superset of the possible answers.
db::Database PossibilityDatabase(const RimPpd& ppd);

}  // namespace ppref::ppd

#endif  // PPREF_PPD_EVALUATOR_H_
