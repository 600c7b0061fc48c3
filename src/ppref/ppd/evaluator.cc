#include "ppref/ppd/evaluator.h"

#include <algorithm>
#include <stdexcept>

#include "ppref/common/check.h"
#include "ppref/common/parallel.h"
#include "ppref/obs/metrics.h"
#include "ppref/ppd/reduction.h"
#include "ppref/query/classify.h"
#include "ppref/query/eval.h"

namespace ppref::ppd {
namespace {

/// Process-wide count of Boolean CQ evaluations, across all entry points
/// (serial, parallel, and server-batched).
void CountBooleanQuery() {
  static obs::Counter& queries = obs::MetricsRegistry::Default().GetCounter(
      "ppref_ppd_boolean_queries_total",
      "Boolean CQ evaluations via ppd::EvaluateBoolean*");
  queries.Inc();
}

/// conf = 1 − Π_s (1 − Pr(s ⊨ Q^s)), multiplied in session order so every
/// entry point's float result matches the serial evaluator.
double CombineSessions(const std::vector<double>& session_probs) {
  double none_matches = 1.0;
  for (double prob : session_probs) none_matches *= 1.0 - prob;
  return 1.0 - none_matches;
}

/// Sends the sessions of `reductions` to `server` as one deduplicated batch
/// and returns one response per reduction, in reduction order. Sessions
/// with a trivially-zero probability (unsatisfiable or reflexive) never
/// reach the server and answer OK with probability 0.
std::vector<serve::Response> ServeSessions(
    const std::vector<SessionReduction>& reductions, serve::Server& server,
    const serve::RequestControl& control) {
  // The labeled models must stay alive until the batch returns, hence the
  // reserve (no relocation under the borrowed pointers).
  std::vector<infer::LabeledRimModel> models;
  models.reserve(reductions.size());
  std::vector<serve::Request> batch;
  std::vector<std::size_t> reduction_of;  // batch index -> reduction index
  for (std::size_t i = 0; i < reductions.size(); ++i) {
    const SessionReduction& reduction = reductions[i];
    if (!reduction.satisfiable || reduction.reflexive_preference) continue;
    models.emplace_back(reduction.model->model(), reduction.labeling);
    serve::Request request;
    request.kind = serve::Request::Kind::kPatternProb;
    request.model = &models.back();
    request.pattern = &reduction.pattern;
    request.control = control;
    batch.push_back(request);
    reduction_of.push_back(i);
  }
  std::vector<serve::Response> responses(reductions.size());
  std::vector<serve::Response> served = server.EvaluateBatch(batch);
  for (std::size_t b = 0; b < served.size(); ++b) {
    responses[reduction_of[b]] = std::move(served[b]);
  }
  return responses;
}

}  // namespace

double EvaluateBoolean(const RimPpd& ppd, const query::ConjunctiveQuery& query) {
  return EvaluateBoolean(ppd, query, infer::PatternProbOptions{});
}

double EvaluateBoolean(const RimPpd& ppd, const query::ConjunctiveQuery& query,
                       const infer::PatternProbOptions& options) {
  if (!query.IsBoolean()) {
    throw SchemaError("EvaluateBoolean expects a Boolean query");
  }
  CountBooleanQuery();
  if (query.PAtoms().empty()) {
    return query::IsSatisfiable(query, ppd.ODatabase()) ? 1.0 : 0.0;
  }
  double none_matches = 1.0;
  for (const SessionReduction& reduction : ReduceItemwise(ppd, query)) {
    none_matches *= 1.0 - SessionProb(reduction, options);
  }
  return 1.0 - none_matches;
}

double EvaluateBoolean(const RimPpd& ppd, const query::ConjunctiveQuery& query,
                       serve::Server& server) {
  if (!query.IsBoolean()) {
    throw SchemaError("EvaluateBoolean expects a Boolean query");
  }
  CountBooleanQuery();
  if (query.PAtoms().empty()) {
    return query::IsSatisfiable(query, ppd.ODatabase()) ? 1.0 : 0.0;
  }
  const std::vector<SessionReduction> reductions = ReduceItemwise(ppd, query);
  const std::vector<serve::Response> responses =
      ServeSessions(reductions, server, {});
  std::vector<double> session_probs(reductions.size(), 0.0);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    // A shed, failed or degraded session has no exact probability; the
    // exact answer cannot be formed, so say so rather than guess.
    if (!responses[i].status.ok()) {
      throw std::runtime_error(responses[i].status.ToString());
    }
    session_probs[i] = responses[i].probability;
  }
  return CombineSessions(session_probs);
}

StatusOr<BooleanResult> TryEvaluateBoolean(const RimPpd& ppd,
                                           const query::ConjunctiveQuery& query,
                                           serve::Server& server,
                                           const serve::RequestControl& control) {
  if (!query.IsBoolean()) {
    return Status::InvalidArgument("TryEvaluateBoolean expects a Boolean query");
  }
  CountBooleanQuery();
  if (query.PAtoms().empty()) {
    return BooleanResult{
        query::IsSatisfiable(query, ppd.ODatabase()) ? 1.0 : 0.0, false, 0.0};
  }
  // ReduceItemwise throws SchemaError on non-itemwise queries; at this
  // boundary that is a malformed request, not a programming error.
  std::vector<SessionReduction> reductions;
  try {
    reductions = ReduceItemwise(ppd, query);
  } catch (const SchemaError& e) {
    return Status::InvalidArgument(e.what());
  }
  const std::vector<serve::Response> responses =
      ServeSessions(reductions, server, control);
  // A session that failed outright fails the query with that status; a
  // degraded (approximate) session keeps the query answerable but marks the
  // result approximate with a summed error bound.
  BooleanResult result;
  std::vector<double> session_probs(reductions.size(), 0.0);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const serve::Response& response = responses[i];
    if (!response.status.ok() && !response.approximate) {
      return response.status;
    }
    if (response.approximate) {
      result.approximate = true;
      result.std_error += response.std_error;
    }
    session_probs[i] = response.probability;
  }
  result.confidence = CombineSessions(session_probs);
  return result;
}

double EvaluateBooleanParallel(const RimPpd& ppd,
                               const query::ConjunctiveQuery& query,
                               unsigned threads) {
  if (!query.IsBoolean()) {
    throw SchemaError("EvaluateBooleanParallel expects a Boolean query");
  }
  CountBooleanQuery();
  if (query.PAtoms().empty()) {
    return query::IsSatisfiable(query, ppd.ODatabase()) ? 1.0 : 0.0;
  }
  const std::vector<SessionReduction> reductions = ReduceItemwise(ppd, query);
  std::vector<double> session_probs(reductions.size(), 0.0);
  // ClampThreads so `threads == 0` means auto here too; the raw value used
  // to fall through to ParallelFor where 0 silently meant "serial".
  ParallelFor(reductions.size(), ClampThreads(threads), [&](std::size_t i) {
    session_probs[i] = SessionProb(reductions[i]);
  });
  return CombineSessions(session_probs);
}

db::Database PossibilityDatabase(const RimPpd& ppd) {
  db::Database database(ppd.schema());
  // Copy o-instances.
  for (const std::string& symbol : ppd.schema().OSymbols()) {
    for (const db::Tuple& tuple : ppd.OInstance(symbol)) {
      database.Add(symbol, tuple);
    }
  }
  // Saturate p-instances with every ordered pair of distinct items.
  for (const std::string& symbol : ppd.schema().PSymbols()) {
    for (const auto& [session, model] : ppd.PInstance(symbol).sessions()) {
      for (rim::ItemId a = 0; a < model.size(); ++a) {
        for (rim::ItemId b = 0; b < model.size(); ++b) {
          if (a == b) continue;
          db::Tuple tuple = session;
          tuple.push_back(model.ItemOf(a));
          tuple.push_back(model.ItemOf(b));
          database.Add(symbol, std::move(tuple));
        }
      }
    }
  }
  return database;
}

std::vector<Answer> EvaluateQuery(const RimPpd& ppd,
                                  const query::ConjunctiveQuery& query) {
  std::vector<Answer> answers;
  if (query.IsBoolean()) {
    const double confidence = EvaluateBoolean(ppd, query);
    if (confidence > 0.0) answers.push_back({db::Tuple{}, confidence});
    return answers;
  }
  const db::Database possibility = PossibilityDatabase(ppd);
  for (const db::Tuple& candidate : query::Evaluate(query, possibility)) {
    query::ConjunctiveQuery bound = query;
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      bound = bound.Substitute(query.head()[i], candidate[i]);
    }
    const double confidence = EvaluateBoolean(ppd, bound);
    if (confidence > 0.0) answers.push_back({candidate, confidence});
  }
  std::stable_sort(answers.begin(), answers.end(),
                   [](const Answer& a, const Answer& b) {
                     return a.confidence > b.confidence;
                   });
  return answers;
}

}  // namespace ppref::ppd
