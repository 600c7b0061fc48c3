/// \file reduction.h
/// \brief The §4.4 reduction: itemwise Boolean CQs over a RIM-PPD become
/// labeled-RIM pattern-matching instances, one per matching session.
///
/// For a session s, the reduction binds s in the query (Lemma 4.8), splits
/// the o-atoms into connected components, checks satisfiability of
/// item-variable-free components against the o-instances, computes potential
/// matches for each item term, and emits the labeling λ and label pattern g
/// such that Pr(s ⊨ Q^s) = Pr(g | σ^s, Π^s, λ).
///
/// The o-atoms read only the deterministic o-instances, so most of this is
/// the same for every session. `ReduceItemwise` splits it in two:
///
/// * **Once per query:** the Boolean / p-atom / itemwise checks; the session
///   terms and the set S of variables in them (matching a session binds
///   exactly S); the o-components with S read as constants (atoms join only
///   on variables outside S — the components of every Q^s, in the same
///   order); per component, its item variable (if any) and the S-variables
///   it mentions, which are its memo key; and the pattern g with its node
///   terms, unless some p-atom item term is in S (then a session's value can
///   collide with another item term, so g is built per session).
/// * **Per session:** match the session terms, then for each component look
///   up its memo under the values of its S-variables. An item-free
///   component stores its satisfiability; a component with item variable x
///   stores, per item value v met so far, whether it is satisfiable with x
///   bound to v. Misses ask the o-database; hits fill λ directly.
///
/// The memos live for one call. Each o-database check answers one
/// (component, key, item) question that the per-session substitution would
/// have asked at least once, so the reduction never makes more checks than
/// one per session would; on 500 sessions sharing 8 candidates and no
/// session-dependent o-atom it makes 16 instead of 8,000. The output is
/// what substituting each session would give, labels included in the same
/// per-item insertion order (the labeling feeds the serve fingerprint).

#ifndef PPREF_PPD_REDUCTION_H_
#define PPREF_PPD_REDUCTION_H_

#include <string>
#include <vector>

#include "ppref/infer/labeling.h"
#include "ppref/infer/pattern.h"
#include "ppref/infer/top_prob.h"
#include "ppref/ppd/ppd.h"
#include "ppref/query/cq.h"

namespace ppref::ppd {

/// The labeled-RIM instance produced for one session of r_Q.
struct SessionReduction {
  /// The session tuple s.
  db::Tuple session;
  /// The session's model (borrowed from the PPD; valid while it lives).
  const SessionModel* model = nullptr;
  /// False when some item-variable-free o-component is unsatisfiable, in
  /// which case Pr(s ⊨ Q^s) = 0 and `pattern`/`labeling` are meaningless.
  bool satisfiable = true;
  /// True when a p-atom relates an item term to itself (σ ≻ σ is
  /// unsatisfiable), forcing Pr(s ⊨ Q^s) = 0.
  bool reflexive_preference = false;
  /// The label pattern g; node labels index `node_terms`.
  infer::LabelPattern pattern;
  /// λ over the session's dense item ids.
  infer::ItemLabeling labeling{0};
  /// Human-readable rendering of each node's item term (variable name or
  /// constant), parallel to pattern node indices.
  std::vector<std::string> node_terms;
};

/// Runs the reduction for every session of r_Q (sessions whose tuple unifies
/// with the common session terms of the query's p-atoms), in the
/// p-instance's session order. Throws SchemaError when the query is not
/// Boolean, has no p-atoms, or is not itemwise.
std::vector<SessionReduction> ReduceItemwise(const RimPpd& ppd,
                                             const query::ConjunctiveQuery& query);

/// Pr(s ⊨ Q^s) for one reduced session: 0 when unsatisfiable or reflexive,
/// otherwise Pr(g | σ^s, Π^s, λ) via TopProb. One DP plan is compiled per
/// session and reused across all of its candidate matchings; `options`
/// forwards to PatternProb (matching-level parallelism, pruning).
double SessionProb(const SessionReduction& reduction,
                   const infer::PatternProbOptions& options = {});

}  // namespace ppref::ppd

#endif  // PPREF_PPD_REDUCTION_H_
