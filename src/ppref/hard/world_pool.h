/// \file world_pool.h
/// \brief `ppref::hard` — shared world pools: amortize RIM sampling across a
/// batch of hard queries against the same model.
///
/// Sampling a ranking world is O(m²); evaluating one pattern against a
/// drawn world is O(k·m). A batch of hard queries over one model therefore
/// wastes almost all of its time re-drawing the same worlds. The pool runs
/// estimator.h's round loop once, draws each world once, and evaluates
/// every still-active query against it.
///
/// This is the tree's one "draw a ranking, test it" body: degraded serve
/// answers and `infer`'s seeded estimators run on it as one-query batches,
/// which by the sharing rule below answer exactly what a solo run would.
///
/// ## The sharing rule (what makes pooled answers provably bit-identical)
/// A drawn world consumes the block's RNG stream; evaluating queries against
/// it consumes nothing. So block b of a pooled run contains *exactly* the
/// worlds block b of a per-query run would draw, every query sees identical
/// per-block hit counts, and — because the round schedule and the stopping
/// rule are query-local functions of (options, own hits) — every query
/// stops at the same round with the same (estimate, std_error, n_samples)
/// as a solo adaptive run at the same seed. A query whose precision target
/// is met simply leaves the evaluation set; the worlds keep flowing for the
/// others.

#ifndef PPREF_HARD_WORLD_POOL_H_
#define PPREF_HARD_WORLD_POOL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "ppref/hard/estimator.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/pattern.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/rim_model.h"

namespace ppref::hard {

/// Adaptive estimates of Pr(g_q | σ, Π, λ) for every pattern in `patterns`,
/// from one shared stream of sampled worlds. Options apply per query (each
/// query has its own stopping decision); `options.budget` expiry marks every
/// still-unconverged query `deadline_limited`. Result order = input order.
std::vector<AdaptiveEstimate> EstimatePatternProbsPooled(
    const infer::LabeledRimModel& model,
    const std::vector<const infer::LabelPattern*>& patterns,
    const AdaptiveOptions& options);

/// The general form: adaptive estimates of Pr(holds(e, τ)) for events
/// e = 0 … events−1 over worlds τ drawn from `model`, one shared stream.
/// `holds` must be safe to call concurrently.
std::vector<AdaptiveEstimate> EstimateRankingEventsPooled(
    const rim::RimModel& model, std::size_t events,
    const std::function<bool(std::size_t, const rim::Ranking&)>& holds,
    const AdaptiveOptions& options);

}  // namespace ppref::hard

#endif  // PPREF_HARD_WORLD_POOL_H_
