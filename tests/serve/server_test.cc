/// \file server_test.cc
/// \brief serve::Server contract tests: answers bit-identical to direct
/// `infer::` calls, cache-hit accounting, batch dedup, the ppd routing
/// overloads, and a multi-threaded stress test with eviction pressure
/// (run under TSan by scripts/check.sh).

#include "ppref/serve/server.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

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

/// Serves one request through `Evaluate`, which must answer OK.
Response Serve(Server& server, const infer::LabeledRimModel& model,
               const infer::LabelPattern& pattern, Request::Kind kind) {
  Request request;
  request.kind = kind;
  request.model = &model;
  request.pattern = &pattern;
  Response response = server.Evaluate(request);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  return response;
}

double Probability(Server& server, const infer::LabeledRimModel& model,
                   const infer::LabelPattern& pattern) {
  return Serve(server, model, pattern, Request::Kind::kPatternProb)
      .probability;
}

TEST(ServeServerTest, PatternProbMatchesDirectInferenceAndCaches) {
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  Server server;
  const double expected = infer::PatternProb(model, pattern);
  EXPECT_EQ(Probability(server, model, pattern), expected);
  EXPECT_EQ(Probability(server, model, pattern), expected);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.result_cache.misses, 1u);
  EXPECT_EQ(stats.result_cache.hits, 1u);
  EXPECT_EQ(stats.plan_cache.insertions, 1u);
  EXPECT_GT(stats.compile_ns, 0u);
  EXPECT_GT(stats.execute_ns, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_GE(stats.in_flight_peak, 1u);
}

TEST(ServeServerTest, TopMatchingMatchesDirectInference) {
  const infer::LabeledRimModel model = MakeModel(6, 0.7);
  const infer::LabelPattern pattern = Chain({2, 0});
  Server server;
  const auto expected = infer::MostProbableTopMatching(model, pattern);
  const Response got =
      Serve(server, model, pattern, Request::Kind::kTopMatching);
  ASSERT_TRUE(expected.has_value());
  ASSERT_TRUE(got.top_matching.has_value());
  EXPECT_EQ(*got.top_matching, expected->first);
  EXPECT_EQ(got.probability, expected->second);
  // Same (model, pattern), other kind: result miss, but the plan is shared.
  Probability(server, model, pattern);
  EXPECT_EQ(server.stats().plan_cache.hits, 1u);
  EXPECT_EQ(server.stats().plan_cache.insertions, 1u);
}

TEST(ServeServerTest, EmptyBatchReturnsNoResponses) {
  Server server;
  EXPECT_TRUE(server.EvaluateBatch({}).empty());
}

TEST(ServeServerTest, BatchDedupsAndMatchesSerialEvaluation) {
  // 12 requests over 3 distinct (model, pattern) pairs and 2 kinds →
  // 5 unique units of work (one pair is only ever asked one kind).
  const std::vector<infer::LabeledRimModel> models = {
      MakeModel(5, 0.3), MakeModel(6, 0.5), MakeModel(6, 0.8)};
  const std::vector<infer::LabelPattern> patterns = {Chain({0, 1}),
                                                     Chain({1, 2, 0}),
                                                     Chain({2, 1})};
  Server server;
  std::vector<Request> batch;
  for (std::size_t round = 0; round < 4; ++round) {
    for (std::size_t which = 0; which < 3; ++which) {
      Request request;
      request.kind = (round % 2 == 1 && which != 2) ? Request::Kind::kTopMatching
                                                    : Request::Kind::kPatternProb;
      request.model = &models[which];
      request.pattern = &patterns[which];
      batch.push_back(request);
    }
  }
  const std::vector<Response> responses = server.EvaluateBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& request = batch[i];
    if (request.kind == Request::Kind::kPatternProb) {
      EXPECT_EQ(responses[i].probability,
                infer::PatternProb(*request.model, *request.pattern))
          << "request " << i;
      EXPECT_FALSE(responses[i].top_matching.has_value());
    } else {
      const auto expected =
          infer::MostProbableTopMatching(*request.model, *request.pattern);
      ASSERT_TRUE(expected.has_value());
      ASSERT_TRUE(responses[i].top_matching.has_value()) << "request " << i;
      EXPECT_EQ(*responses[i].top_matching, expected->first);
      EXPECT_EQ(responses[i].probability, expected->second);
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.requests, 12u);
  EXPECT_EQ(stats.batch_deduped, 12u - 5u);
  EXPECT_EQ(stats.result_cache.insertions, 5u);
  EXPECT_EQ(stats.plan_cache.insertions, 3u);

  // A repeat of the whole batch is answered entirely from the result cache.
  const std::vector<Response> warm = server.EvaluateBatch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(warm[i].probability, responses[i].probability);
    EXPECT_EQ(warm[i].top_matching, responses[i].top_matching);
  }
  EXPECT_EQ(server.stats().result_cache.insertions, 5u);
}

TEST(ServeServerTest, EvaluatorThroughServerMatchesSerial) {
  const ppd::RimPpd ppd = ppd::ElectionPpd();
  const query::ConjunctiveQuery q1 = testing::ParsePaperQuery(testing::kQ1);
  const query::ConjunctiveQuery q3 = testing::ParsePaperQuery(testing::kQ3);
  Server server;
  EXPECT_EQ(ppd::EvaluateBoolean(ppd, q1, server), ppd::EvaluateBoolean(ppd, q1));
  EXPECT_EQ(ppd::EvaluateBoolean(ppd, q3, server), ppd::EvaluateBoolean(ppd, q3));
  // Re-running a query against the shared server is pure cache traffic.
  const ServerStats before = server.stats();
  EXPECT_EQ(ppd::EvaluateBoolean(ppd, q1, server), ppd::EvaluateBoolean(ppd, q1));
  EXPECT_EQ(server.stats().result_cache.insertions,
            before.result_cache.insertions);
}

TEST(ServeServerTest, UcqThroughServerMatchesSerial) {
  const ppd::RimPpd ppd = ppd::ElectionPpd();
  const query::UnionQuery ucq = query::ParseUnionQuery(
      "Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders') UNION "
      "Q() :- Polls('Ann', 'Oct-5'; 'Sanders'; 'Rubio') UNION "
      "Q() :- Polls('Ann', 'Oct-5'; 'Rubio'; 'Trump')",
      ppd.schema());
  Server server;
  EXPECT_EQ(ppd::EvaluateBooleanUnion(ppd, ucq, server),
            ppd::EvaluateBooleanUnion(ppd, ucq));
  // The 2^3 - 1 inclusion–exclusion conjunctions went out as one batch.
  EXPECT_EQ(server.stats().batches, 1u);
  EXPECT_EQ(server.stats().requests, 7u);
}

TEST(ServeServerTest, ConcurrentMixedWorkloadStress) {
  // Tiny caches force constant eviction and recompilation while 8 threads
  // hammer a shared server with every entry point. Determinism contract:
  // whatever the interleaving, every answer equals the precomputed serial
  // one. TSan (scripts/check.sh) checks the synchronization.
  constexpr unsigned kThreads = 8;
  constexpr unsigned kRounds = 60;
  const std::vector<infer::LabeledRimModel> models = {
      MakeModel(5, 0.3), MakeModel(5, 0.6), MakeModel(6, 0.4),
      MakeModel(6, 0.7), MakeModel(7, 0.5)};
  const std::vector<infer::LabelPattern> patterns = {
      Chain({0, 1}), Chain({1, 2}), Chain({0, 1, 2}), Chain({2, 0}),
      Chain({1, 0, 2})};
  const std::size_t kWork = models.size();
  std::vector<double> expected_prob(kWork);
  std::vector<std::optional<std::pair<infer::Matching, double>>> expected_top(
      kWork);
  for (std::size_t k = 0; k < kWork; ++k) {
    expected_prob[k] = infer::PatternProb(models[k], patterns[k]);
    expected_top[k] = infer::MostProbableTopMatching(models[k], patterns[k]);
  }

  ServerOptions options;
  options.plan_cache_capacity = 2;
  options.result_cache_capacity = 4;
  options.cache_shards = 2;
  Server server(options);
  std::vector<bool> mismatch(kThreads, false);
  std::vector<std::thread> pool;
  for (unsigned thread = 0; thread < kThreads; ++thread) {
    pool.emplace_back([&, thread] {
      for (unsigned round = 0; round < kRounds; ++round) {
        const std::size_t k = (thread + round) % kWork;
        switch (round % 3) {
          case 0: {
            if (Probability(server, models[k], patterns[k]) !=
                expected_prob[k]) {
              mismatch[thread] = true;
            }
            break;
          }
          case 1: {
            const Response got = Serve(server, models[k], patterns[k],
                                       Request::Kind::kTopMatching);
            const bool same =
                expected_top[k].has_value()
                    ? got.top_matching == expected_top[k]->first &&
                          got.probability == expected_top[k]->second
                    : !got.top_matching.has_value();
            if (!same) mismatch[thread] = true;
            break;
          }
          default: {
            // A small batch with an in-batch duplicate.
            const std::size_t other = (k + 1) % kWork;
            std::vector<Request> batch(3);
            batch[0] = {Request::Kind::kPatternProb, &models[k], &patterns[k]};
            batch[1] = {Request::Kind::kPatternProb, &models[other],
                        &patterns[other]};
            batch[2] = batch[0];
            const std::vector<Response> responses = server.EvaluateBatch(batch);
            if (responses[0].probability != expected_prob[k] ||
                responses[1].probability != expected_prob[other] ||
                responses[2].probability != expected_prob[k]) {
              mismatch[thread] = true;
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (unsigned thread = 0; thread < kThreads; ++thread) {
    EXPECT_FALSE(mismatch[thread]) << "thread " << thread;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_GE(stats.in_flight_peak, 1u);
  EXPECT_LE(server.stats().result_cache.insertions,
            stats.result_cache.misses);
}

}  // namespace
}  // namespace ppref::serve
