/// \file chaos_test.cc
/// \brief Fault-tolerance contract of the serving boundary: invalid inputs,
/// load shedding, deadlines, cancellation, Monte-Carlo degradation — and,
/// under PPREF_FAULT_INJECTION, deterministic chaos (miss storms, slow
/// plans, mid-DP stops) driven through a 10k-request batch. Suites are named
/// `Serve*` so scripts/check.sh runs them under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ppref/common/deadline.h"
#include "ppref/common/fault_injection.h"
#include "ppref/common/status.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/labeling.h"
#include "ppref/infer/pattern.h"
#include "ppref/infer/top_prob.h"
#include "ppref/ppd/evaluator.h"
#include "ppref/ppd/ppd.h"
#include "ppref/ppd/ucq_evaluator.h"
#include "ppref/query/parser.h"
#include "ppref/rim/mallows.h"
#include "ppref/rim/ranking.h"
#include "ppref/serve/server.h"
#include "query/paper_queries.h"

namespace ppref::serve {
namespace {

/// m-item Mallows with item i carrying label i % 3.
infer::LabeledRimModel MakeModel(unsigned m, double phi) {
  infer::ItemLabeling labeling(m);
  for (unsigned item = 0; item < m; ++item) labeling.AddLabel(item, item % 3);
  return infer::LabeledRimModel(
      rim::MallowsModel(rim::Ranking::Identity(m), phi).rim(), labeling);
}

/// Chain pattern l0 -> l1 -> ... over the given labels.
infer::LabelPattern Chain(const std::vector<unsigned>& labels) {
  infer::LabelPattern pattern;
  std::vector<unsigned> nodes;
  for (unsigned label : labels) nodes.push_back(pattern.AddNode(label));
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    pattern.AddEdge(nodes[i - 1], nodes[i]);
  }
  return pattern;
}

Request MakeRequest(const infer::LabeledRimModel& model,
                    const infer::LabelPattern& pattern,
                    Request::Kind kind = Request::Kind::kPatternProb) {
  Request request;
  request.kind = kind;
  request.model = &model;
  request.pattern = &pattern;
  return request;
}

// ---------------------------------------------------------------------------
// Validation: malformed requests get kInvalidArgument, never an abort.

TEST(ServeChaosTest, NullModelIsInvalidArgument) {
  Server server;
  const infer::LabelPattern pattern = Chain({0, 1});
  Request request;
  request.pattern = &pattern;  // model stays null
  const Response response = server.Evaluate(request);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.stats().invalid, 1u);
}

TEST(ServeChaosTest, NullPatternIsInvalidArgument) {
  Server server;
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  Request request;
  request.model = &model;  // pattern stays null
  const Response response = server.Evaluate(request);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
}

TEST(ServeChaosTest, AbsentPatternLabelIsInvalidArgument) {
  Server server;
  const infer::LabeledRimModel model = MakeModel(6, 0.5);  // labels 0..2 only
  const infer::LabelPattern pattern = Chain({0, 7});
  const Response response = server.Evaluate(MakeRequest(model, pattern));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status.message().find("7"), std::string::npos);
}

TEST(ServeChaosTest, InvalidRequestsDoNotPoisonTheirBatch) {
  Server server;
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const infer::LabelPattern good = Chain({0, 1, 2});
  const infer::LabelPattern bad = Chain({0, 9});
  const std::vector<Request> batch = {
      MakeRequest(model, good),
      MakeRequest(model, bad),
      MakeRequest(model, good),
  };
  const std::vector<Response> responses = server.EvaluateBatch(batch);
  ASSERT_EQ(responses.size(), 3u);
  const double expected = infer::PatternProb(model, good);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[0].probability, expected);
  EXPECT_EQ(responses[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_EQ(responses[2].probability, expected);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.invalid, 1u);
  // The two good duplicates still dedup to one computation.
  EXPECT_EQ(stats.batch_deduped, 1u);
}

// ---------------------------------------------------------------------------
// Admission control: shed requests are terminal, hinted, and counted.

TEST(ServeChaosTest, SheddingGivesEveryRequestATerminalStatus) {
  ServerOptions options;
  options.max_in_flight = 2;
  Server server(options);
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1});
  const std::vector<Request> batch(6, MakeRequest(model, pattern));
  const std::vector<Response> responses = server.EvaluateBatch(batch);
  ASSERT_EQ(responses.size(), 6u);
  const double expected = infer::PatternProb(model, pattern);
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (const Response& response : responses) {
    if (response.status.ok()) {
      ++ok;
      EXPECT_EQ(response.probability, expected);
    } else {
      ++shed;
      EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
      EXPECT_GT(response.retry_after_ns, 0u);
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, 4u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 4u);
  EXPECT_EQ(stats.in_flight, 0u);  // all admission slots released
}

TEST(ServeChaosTest, UnboundedServerShedsNothing) {
  Server server;  // max_in_flight = 0
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1});
  const std::vector<Request> batch(32, MakeRequest(model, pattern));
  for (const Response& response : server.EvaluateBatch(batch)) {
    EXPECT_TRUE(response.status.ok());
  }
  EXPECT_EQ(server.stats().shed, 0u);
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation.

TEST(ServeChaosTest, ExpiredDeadlineIsDeadlineExceeded) {
  Server server;
  const infer::LabeledRimModel model = MakeModel(8, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  Request request = MakeRequest(model, pattern);
  request.control.deadline_ns = 1;  // expired on arrival
  const Response response = server.Evaluate(request);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(response.approximate);
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);
}

TEST(ServeChaosTest, DefaultDeadlineAppliesWhenRequestSetsNone) {
  ServerOptions options;
  options.default_deadline_ns = 1;
  Server server(options);
  const infer::LabeledRimModel model = MakeModel(8, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  const Response response = server.Evaluate(MakeRequest(model, pattern));
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(ServeChaosTest, PreFiredTokenIsCancelled) {
  Server server;
  const infer::LabeledRimModel model = MakeModel(8, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  CancellationToken token;
  token.Cancel();
  Request request = MakeRequest(model, pattern);
  request.control.cancel = &token;
  const Response response = server.Evaluate(request);
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(ServeChaosTest, DeadlineFailureLeavesCachesConsistent) {
  Server server;
  const infer::LabeledRimModel model = MakeModel(8, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  Request doomed = MakeRequest(model, pattern);
  doomed.control.deadline_ns = 1;
  EXPECT_EQ(server.Evaluate(doomed).status.code(),
            StatusCode::kDeadlineExceeded);
  // Nothing half-done was published: no result entry, and the failed plan
  // compile left no cached plan behind.
  EXPECT_EQ(server.stats().result_cache.insertions, 0u);
  EXPECT_EQ(server.stats().plan_cache.insertions, 0u);
  // The identical request without the deadline now gets the exact answer.
  const Response ok = server.Evaluate(MakeRequest(model, pattern));
  ASSERT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.probability, infer::PatternProb(model, pattern));
  EXPECT_EQ(server.stats().result_cache.insertions, 1u);
}

TEST(ServeChaosTest, DifferentControlsDoNotShareAComputation) {
  // Two byte-identical requests, one already past its deadline: dedup must
  // keep them apart, or the doomed one's stop would decide both answers.
  Server server;
  const infer::LabeledRimModel model = MakeModel(8, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  Request doomed = MakeRequest(model, pattern);
  doomed.control.deadline_ns = 1;
  const std::vector<Request> batch = {doomed, MakeRequest(model, pattern)};
  const std::vector<Response> responses = server.EvaluateBatch(batch);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(responses[1].status.ok());
  EXPECT_EQ(responses[1].probability, infer::PatternProb(model, pattern));
  EXPECT_EQ(server.stats().batch_deduped, 0u);
}

// ---------------------------------------------------------------------------
// Graceful degradation to Monte-Carlo.

TEST(ServeChaosTest, DegradationServesApproximateAnswerWithErrorBar) {
  ServerOptions options;
  options.degradation = ServerOptions::Degradation::kMonteCarlo;
  options.degraded_samples = 20000;
  Server server(options);
  const infer::LabeledRimModel model = MakeModel(8, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  Request request = MakeRequest(model, pattern);
  request.control.deadline_ns = 1;
  const Response response = server.Evaluate(request);
  // The status still reports the failure; the payload is the fallback.
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.approximate);
  EXPECT_GT(response.std_error, 0.0);
  const double exact = infer::PatternProb(model, pattern);
  EXPECT_NEAR(response.probability, exact,
              std::max(6.0 * response.std_error, 0.02));
  EXPECT_EQ(server.stats().degraded, 1u);
  // Approximate answers are never cached.
  EXPECT_EQ(server.stats().result_cache.insertions, 0u);
}

TEST(ServeChaosTest, DegradedAnswerIsReproducible) {
  ServerOptions options;
  options.degradation = ServerOptions::Degradation::kMonteCarlo;
  options.degraded_samples = 2048;
  Server server(options);
  const infer::LabeledRimModel model = MakeModel(8, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  Request request = MakeRequest(model, pattern);
  request.control.deadline_ns = 1;
  const Response first = server.Evaluate(request);
  const Response second = server.Evaluate(request);
  ASSERT_TRUE(first.approximate);
  ASSERT_TRUE(second.approximate);
  // Seeded per request fingerprint: repeats are bit-identical.
  EXPECT_EQ(first.probability, second.probability);
  EXPECT_EQ(first.std_error, second.std_error);
}

TEST(ServeChaosTest, DegradedTopMatchingFindsTheExactWinner) {
  ServerOptions options;
  options.degradation = ServerOptions::Degradation::kMonteCarlo;
  options.degraded_samples = 20000;
  Server server(options);
  const infer::LabeledRimModel model = MakeModel(6, 0.3);
  const infer::LabelPattern pattern = Chain({0, 1});
  Request request = MakeRequest(model, pattern, Request::Kind::kTopMatching);
  request.control.deadline_ns = 1;
  const Response response = server.Evaluate(request);
  ASSERT_TRUE(response.approximate);
  const auto exact = infer::MostProbableTopMatching(model, pattern);
  ASSERT_TRUE(exact.has_value());
  ASSERT_TRUE(response.top_matching.has_value());
  EXPECT_EQ(*response.top_matching, exact->first);
}

TEST(ServeChaosTest, SizeGuardRefusesWithoutDegradation) {
  ServerOptions options;
  options.max_pattern_nodes = 2;
  Server server(options);
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  const Response response = server.Evaluate(MakeRequest(model, pattern));
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(response.approximate);
  EXPECT_GT(response.retry_after_ns, 0u);
}

TEST(ServeChaosTest, SizeGuardDegradesWhenPolicyAllows) {
  ServerOptions options;
  options.max_pattern_nodes = 2;
  options.degradation = ServerOptions::Degradation::kMonteCarlo;
  options.degraded_samples = 20000;
  Server server(options);
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  const Response response = server.Evaluate(MakeRequest(model, pattern));
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(response.approximate);
  EXPECT_NEAR(response.probability, infer::PatternProb(model, pattern),
              std::max(6.0 * response.std_error, 0.02));
}

// ---------------------------------------------------------------------------
// The ppd-level status boundary.

TEST(ServeChaosTest, TryEvaluateBooleanMatchesThrowingEvaluator) {
  const ppd::RimPpd ppd = ppd::ElectionPpd();
  const query::ConjunctiveQuery query =
      ppref::testing::ParsePaperQuery(ppref::testing::kQ1);
  Server server;
  const StatusOr<ppd::BooleanResult> result =
      ppd::TryEvaluateBoolean(ppd, query, server);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->approximate);
  EXPECT_EQ(result->confidence, ppd::EvaluateBoolean(ppd, query));
}

TEST(ServeChaosTest, TryEvaluateBooleanMapsDeadlineToStatus) {
  const ppd::RimPpd ppd = ppd::ElectionPpd();
  const query::ConjunctiveQuery query =
      ppref::testing::ParsePaperQuery(ppref::testing::kQ1);
  Server server;
  serve::RequestControl control;
  control.deadline_ns = 1;
  const StatusOr<ppd::BooleanResult> result =
      ppd::TryEvaluateBoolean(ppd, query, server, control);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ServeChaosTest, TryEvaluateBooleanDegradesToApproximate) {
  const ppd::RimPpd ppd = ppd::ElectionPpd();
  const query::ConjunctiveQuery query =
      ppref::testing::ParsePaperQuery(ppref::testing::kQ1);
  ServerOptions options;
  options.degradation = ServerOptions::Degradation::kMonteCarlo;
  options.degraded_samples = 20000;
  Server server(options);
  serve::RequestControl control;
  control.deadline_ns = 1;
  const StatusOr<ppd::BooleanResult> result =
      ppd::TryEvaluateBoolean(ppd, query, server, control);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->approximate);
  EXPECT_GT(result->std_error, 0.0);
  const double exact = ppd::EvaluateBoolean(ppd, query);
  EXPECT_NEAR(result->confidence, exact,
              std::max(6.0 * result->std_error, 0.05));
}

TEST(ServeChaosTest, ShedSessionsFailTheCqInsteadOfZeroingThem) {
  // Q3 sends two distinct session requests; a one-slot server sheds one.
  // Its probability field is 0, which the exact overload must not fold in.
  const ppd::RimPpd ppd = ppd::ElectionPpd();
  const query::ConjunctiveQuery query =
      ppref::testing::ParsePaperQuery(ppref::testing::kQ3);
  ServerOptions options;
  options.max_in_flight = 1;
  Server server(options);
  EXPECT_THROW(ppd::EvaluateBoolean(ppd, query, server), std::runtime_error);
  const StatusOr<ppd::BooleanResult> result =
      ppd::TryEvaluateBoolean(ppd, query, server);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(server.stats().shed, 0u);
}

TEST(ServeChaosTest, ShedConjunctionsFailTheUcq) {
  // Each session sends its 2^3 - 1 inclusion–exclusion conjunctions as one
  // batch; a one-slot server sheds all but one.
  const ppd::RimPpd ppd = ppd::ElectionPpd();
  const query::UnionQuery ucq = query::ParseUnionQuery(
      "Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders') UNION "
      "Q() :- Polls('Ann', 'Oct-5'; 'Sanders'; 'Rubio') UNION "
      "Q() :- Polls('Ann', 'Oct-5'; 'Rubio'; 'Trump')",
      ppd.schema());
  ServerOptions options;
  options.max_in_flight = 1;
  Server server(options);
  EXPECT_THROW(ppd::EvaluateBooleanUnion(ppd, ucq, server),
               std::runtime_error);
  EXPECT_GT(server.stats().shed, 0u);
}

// ---------------------------------------------------------------------------
// Deterministic chaos (PPREF_FAULT_INJECTION builds only).

class ServeChaosInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef PPREF_FAULT_INJECTION
    FaultInjection::Instance().Reset();
#else
    GTEST_SKIP() << "built without PPREF_FAULT_INJECTION";
#endif
  }
  void TearDown() override {
#ifdef PPREF_FAULT_INJECTION
    FaultInjection::Instance().Reset();
#endif
  }
};

#ifdef PPREF_FAULT_INJECTION

TEST_F(ServeChaosInjectionTest, ConcurrentMissStormCompilesPlanOnce) {
  // Regression for the Get-then-Put double compile: widen the compile
  // window with an injected delay and hit one cold key from many threads;
  // single-flight must coalesce them into exactly one compilation.
  FaultInjection::Instance().plan_compile_delay_ns.store(2'000'000);
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  const infer::LabeledRimModel model = MakeModel(8, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  constexpr unsigned kThreads = 8;
  std::vector<std::thread> pool;
  std::vector<double> answers(kThreads, -1.0);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const Response response = server.Evaluate(MakeRequest(model, pattern));
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      answers[t] = response.probability;
    });
  }
  for (std::thread& thread : pool) thread.join();
  const double expected = infer::PatternProb(model, pattern);
  for (double answer : answers) EXPECT_EQ(answer, expected);
  EXPECT_EQ(FaultInjection::Instance().plan_compiles.load(), 1u);
  EXPECT_EQ(server.stats().plan_cache.misses, 1u);
  EXPECT_LE(server.stats().plan_cache.insertions,
            server.stats().plan_cache.misses);
}

TEST_F(ServeChaosInjectionTest, ForcedPlanMissStormRecompilesEveryRequest) {
  FaultInjection::Instance().force_plan_cache_miss.store(true);
  FaultInjection::Instance().force_result_cache_miss.store(true);
  Server server;
  const infer::LabeledRimModel model = MakeModel(8, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  const double expected = infer::PatternProb(model, pattern);
  for (int round = 0; round < 3; ++round) {
    const Response response = server.Evaluate(MakeRequest(model, pattern));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.probability, expected);  // storms change cost, not bits
  }
  EXPECT_EQ(FaultInjection::Instance().plan_compiles.load(), 3u);
}

TEST_F(ServeChaosInjectionTest, MidDpDeadlineInjectionIsTerminal) {
  FaultInjection::Instance().deadline_every_n_dp_steps.store(3);
  Server server;
  const infer::LabeledRimModel model = MakeModel(10, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  const Response response = server.Evaluate(MakeRequest(model, pattern));
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().result_cache.insertions, 0u);
}

TEST_F(ServeChaosInjectionTest, MidDpCancelInjectionIsTerminal) {
  FaultInjection::Instance().cancel_every_n_dp_steps.store(3);
  Server server;
  const infer::LabeledRimModel model = MakeModel(10, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  const Response response = server.Evaluate(MakeRequest(model, pattern));
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
}

TEST_F(ServeChaosInjectionTest, MidDpStopDegradesToMonteCarlo) {
  // The MC sampler is not instrumented, so the fallback completes even
  // while the exact DP path is being killed on every attempt. The exact
  // reference is computed before arming the fault — direct inference shares
  // the instrumented DP loop and would be killed too.
  const infer::LabeledRimModel model = MakeModel(10, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  const double exact = infer::PatternProb(model, pattern);
  FaultInjection::Instance().deadline_every_n_dp_steps.store(3);
  ServerOptions options;
  options.degradation = ServerOptions::Degradation::kMonteCarlo;
  options.degraded_samples = 20000;
  Server server(options);
  const Response response = server.Evaluate(MakeRequest(model, pattern));
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(response.approximate);
  EXPECT_NEAR(response.probability, exact,
              std::max(6.0 * response.std_error, 0.02));
}

TEST_F(ServeChaosInjectionTest, TenThousandRequestChaosBatchIsFullyTerminal) {
  // The acceptance scenario: slow plans + forced plan misses + mid-DP stops
  // against a 10k-request batch on a shedding, degrading server. Every
  // request must end in exactly kOk, kDeadlineExceeded (with an MC fallback
  // and error bar — degradation is on), or kResourceExhausted; no aborts,
  // no hangs, no silent drops.
  FaultInjection::Instance().plan_compile_delay_ns.store(200'000);
  FaultInjection::Instance().force_plan_cache_miss.store(true);
  FaultInjection::Instance().deadline_every_n_dp_steps.store(97);

  ServerOptions options;
  options.threads = 4;
  options.max_in_flight = 8192;
  options.degradation = ServerOptions::Degradation::kMonteCarlo;
  options.degraded_samples = 512;
  Server server(options);

  std::vector<infer::LabeledRimModel> models;
  std::vector<infer::LabelPattern> patterns;
  for (unsigned i = 0; i < 8; ++i) {
    models.push_back(MakeModel(6 + (i % 3) * 2, 0.3 + 0.08 * i));
    patterns.push_back(i % 2 == 0 ? Chain({0, 1, 2}) : Chain({0, 1}));
  }
  constexpr std::size_t kRequests = 10'000;
  std::vector<Request> batch;
  batch.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    batch.push_back(MakeRequest(models[i % models.size()],
                                patterns[i % patterns.size()],
                                i % 5 == 4 ? Request::Kind::kTopMatching
                                           : Request::Kind::kPatternProb));
  }
  const std::vector<Response> responses = server.EvaluateBatch(batch);
  ASSERT_EQ(responses.size(), kRequests);

  std::size_t ok = 0;
  std::size_t degraded = 0;
  std::size_t shed = 0;
  for (const Response& response : responses) {
    switch (response.status.code()) {
      case StatusCode::kOk:
        ++ok;
        break;
      case StatusCode::kDeadlineExceeded:
        ++degraded;
        EXPECT_TRUE(response.approximate);
        // A degenerate estimate (every sample agreed) has zero std error;
        // otherwise the error bar must be reported.
        if (response.probability > 0.0 && response.probability < 1.0) {
          EXPECT_GT(response.std_error, 0.0);
        }
        EXPECT_GE(response.probability, 0.0);
        EXPECT_LE(response.probability, 1.0);
        break;
      case StatusCode::kResourceExhausted:
        ++shed;
        EXPECT_GT(response.retry_after_ns, 0u);
        break;
      default:
        FAIL() << "unexpected terminal status "
               << response.status.ToString();
    }
  }
  EXPECT_EQ(ok + degraded + shed, kRequests);
  EXPECT_EQ(shed, kRequests - options.max_in_flight);
  EXPECT_EQ(server.stats().in_flight, 0u);  // no leaked admission slots

  // Warm path after the storm: with faults disarmed, exact answers are
  // bit-identical to per-request serial inference — chaos changed latency,
  // never results.
  FaultInjection::Instance().Reset();
  for (std::size_t i = 0; i < models.size(); ++i) {
    const Response response =
        server.Evaluate(MakeRequest(models[i], patterns[i]));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.probability,
              infer::PatternProb(models[i], patterns[i]));
  }
}

#endif  // PPREF_FAULT_INJECTION

}  // namespace
}  // namespace ppref::serve
