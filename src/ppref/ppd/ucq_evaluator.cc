#include "ppref/ppd/ucq_evaluator.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "ppref/common/check.h"
#include "ppref/infer/conjunction.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/top_prob.h"
#include "ppref/ppd/possible_worlds.h"
#include "ppref/ppd/reduction.h"
#include "ppref/query/classify.h"
#include "ppref/query/eval.h"

namespace ppref::ppd {
namespace {

/// The pattern events contributed to one session (identified by p-symbol +
/// session tuple) by the union's disjuncts.
struct SessionEvents {
  const SessionModel* model = nullptr;
  std::vector<infer::PatternInstance> events;
};

/// Pr(at least one event matches) by inclusion–exclusion over conjunctions.
double AnyEventProb(const SessionEvents& session,
                    const infer::PatternProbOptions& options) {
  const std::size_t t = session.events.size();
  PPREF_CHECK(t > 0);
  PPREF_CHECK_MSG(t <= 20, "inclusion-exclusion over " << t
                               << " disjunct events is infeasible");
  double total = 0.0;
  for (std::size_t mask = 1; mask < (std::size_t{1} << t); ++mask) {
    // Conjoin the selected events.
    infer::PatternInstance joint;
    bool first = true;
    for (std::size_t i = 0; i < t; ++i) {
      if (!(mask & (std::size_t{1} << i))) continue;
      joint = first ? session.events[i]
                    : infer::Conjoin(joint, session.events[i]);
      first = false;
    }
    const double prob = infer::PatternProb(
        infer::LabeledRimModel(session.model->model(), joint.labeling),
        joint.pattern, options);
    const bool odd = __builtin_popcountll(mask) % 2 == 1;
    total += odd ? prob : -prob;
  }
  return total;
}

/// AnyEventProb routed through a serve::Server: every inclusion–exclusion
/// conjunction goes out as one deduplicated batch; the signed reduction
/// runs in mask order, bit-identical to the serial loop above. Throws
/// std::runtime_error when any conjunction's response is not OK.
double AnyEventProb(const SessionEvents& session, serve::Server& server) {
  const std::size_t t = session.events.size();
  PPREF_CHECK(t > 0);
  PPREF_CHECK_MSG(t <= 20, "inclusion-exclusion over " << t
                               << " disjunct events is infeasible");
  const std::size_t terms = (std::size_t{1} << t) - 1;
  // The batch borrows the conjoined instances, so both vectors are
  // reserved up front — no relocation under the borrowed pointers.
  std::vector<infer::PatternInstance> joints;
  std::vector<infer::LabeledRimModel> models;
  joints.reserve(terms);
  models.reserve(terms);
  std::vector<serve::Request> batch;
  for (std::size_t mask = 1; mask <= terms; ++mask) {
    infer::PatternInstance joint;
    bool first = true;
    for (std::size_t i = 0; i < t; ++i) {
      if (!(mask & (std::size_t{1} << i))) continue;
      joint = first ? session.events[i]
                    : infer::Conjoin(joint, session.events[i]);
      first = false;
    }
    joints.push_back(std::move(joint));
    models.emplace_back(session.model->model(), joints.back().labeling);
    serve::Request request;
    request.kind = serve::Request::Kind::kPatternProb;
    request.model = &models.back();
    request.pattern = &joints.back().pattern;
    batch.push_back(request);
  }
  const std::vector<serve::Response> responses = server.EvaluateBatch(batch);
  double total = 0.0;
  for (std::size_t mask = 1; mask <= terms; ++mask) {
    const serve::Response& response = responses[mask - 1];
    // A shed, failed or degraded conjunction leaves no exact sum to form.
    if (!response.status.ok()) {
      throw std::runtime_error(response.status.ToString());
    }
    const double prob = response.probability;
    const bool odd = __builtin_popcountll(mask) % 2 == 1;
    total += odd ? prob : -prob;
  }
  return total;
}

/// Shared driver for the serial and server-routed union evaluators:
/// groups the disjuncts' reductions by session and folds `any_event` over
/// the groups in session order.
template <typename AnyEvent>
double EvaluateBooleanUnionImpl(const RimPpd& ppd, const query::UnionQuery& ucq,
                                const AnyEvent& any_event) {
  PPREF_CHECK(ucq.IsBoolean());
  // Key: p-symbol + session tuple. Sessions of distinct symbols are
  // distinct keys and independent.
  std::map<std::pair<std::string, db::Tuple>, SessionEvents> by_session;

  for (const query::ConjunctiveQuery& disjunct : ucq.disjuncts()) {
    if (disjunct.PAtoms().empty()) {
      if (query::IsSatisfiable(disjunct, ppd.ODatabase())) return 1.0;
      continue;  // a false deterministic disjunct contributes nothing
    }
    const std::string symbol = disjunct.PAtoms().front()->symbol;
    for (const SessionReduction& reduction : ReduceItemwise(ppd, disjunct)) {
      if (!reduction.satisfiable || reduction.reflexive_preference) continue;
      SessionEvents& events = by_session[{symbol, reduction.session}];
      events.model = reduction.model;
      events.events.push_back(
          {reduction.pattern, reduction.labeling});
    }
  }

  double none = 1.0;
  for (const auto& [key, events] : by_session) {
    none *= 1.0 - any_event(events);
  }
  return 1.0 - none;
}

}  // namespace

double EvaluateBooleanUnion(const RimPpd& ppd, const query::UnionQuery& ucq,
                            const infer::PatternProbOptions& options) {
  return EvaluateBooleanUnionImpl(ppd, ucq, [&](const SessionEvents& events) {
    return AnyEventProb(events, options);
  });
}

double EvaluateBooleanUnion(const RimPpd& ppd, const query::UnionQuery& ucq,
                            serve::Server& server) {
  return EvaluateBooleanUnionImpl(ppd, ucq, [&](const SessionEvents& events) {
    return AnyEventProb(events, server);
  });
}

std::vector<Answer> EvaluateUnionQuery(const RimPpd& ppd,
                                       const query::UnionQuery& ucq) {
  if (ucq.IsBoolean()) {
    std::vector<Answer> answers;
    const double confidence = EvaluateBooleanUnion(ppd, ucq);
    if (confidence > 0.0) answers.push_back({db::Tuple{}, confidence});
    return answers;
  }
  // Candidate answers: union of each disjunct's candidates over the
  // possibility database.
  const db::Database possibility = PossibilityDatabase(ppd);
  std::vector<db::Tuple> candidates;
  for (const query::ConjunctiveQuery& disjunct : ucq.disjuncts()) {
    for (const db::Tuple& tuple : query::Evaluate(disjunct, possibility)) {
      if (std::find(candidates.begin(), candidates.end(), tuple) ==
          candidates.end()) {
        candidates.push_back(tuple);
      }
    }
  }
  std::vector<Answer> answers;
  for (const db::Tuple& candidate : candidates) {
    std::vector<query::ConjunctiveQuery> bound;
    for (const query::ConjunctiveQuery& disjunct : ucq.disjuncts()) {
      query::ConjunctiveQuery q = disjunct;
      for (std::size_t i = 0; i < candidate.size(); ++i) {
        q = q.Substitute(disjunct.head()[i], candidate[i]);
      }
      bound.push_back(std::move(q));
    }
    const double confidence =
        EvaluateBooleanUnion(ppd, query::UnionQuery(std::move(bound)));
    if (confidence > 0.0) answers.push_back({candidate, confidence});
  }
  std::stable_sort(answers.begin(), answers.end(),
                   [](const Answer& a, const Answer& b) {
                     return a.confidence > b.confidence;
                   });
  return answers;
}

double EvaluateBooleanUnionByEnumeration(const RimPpd& ppd,
                                         const query::UnionQuery& ucq,
                                         double max_worlds) {
  PPREF_CHECK(ucq.IsBoolean());
  double total = 0.0;
  ForEachWorld(ppd, max_worlds, [&](const db::Database& world, double prob) {
    for (const query::ConjunctiveQuery& disjunct : ucq.disjuncts()) {
      if (query::IsSatisfiable(disjunct, world)) {
        total += prob;
        return;
      }
    }
  });
  return total;
}

}  // namespace ppref::ppd
