/// \file store_integration_test.cc
/// \brief serve::Server × store::Store: warm restarts answer from disk
/// bit-identically, corrupt records degrade to recompute-and-count, and a
/// store-less server stays byte-for-byte on the old in-memory path.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/labeling.h"
#include "ppref/infer/pattern.h"
#include "ppref/infer/top_prob.h"
#include "ppref/common/status.h"
#include "ppref/rim/mallows.h"
#include "ppref/rim/ranking.h"
#include "ppref/serve/fingerprint.h"
#include "ppref/serve/server.h"
#include "ppref/store/store.h"

namespace ppref::serve {
namespace {

std::string TempStoreDir(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  dir += info->test_suite_name();
  dir += '.';
  dir += info->name();
  dir += '.';
  dir += name;
  const std::string cleanup = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cleanup.c_str());
  return dir;
}

store::StoreOptions FastStoreOptions(std::string dir) {
  store::StoreOptions options;
  options.dir = std::move(dir);
  options.flush_interval_ms = 5;
  options.fsync = false;
  return options;
}

infer::LabeledRimModel MakeModel(unsigned m, double phi) {
  infer::ItemLabeling labeling(m);
  for (unsigned item = 0; item < m; ++item) labeling.AddLabel(item, item % 3);
  return infer::LabeledRimModel(
      rim::MallowsModel(rim::Ranking::Identity(m), phi).rim(), labeling);
}

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
               const infer::LabelPattern& pattern,
               Request::Kind kind = Request::Kind::kPatternProb) {
  Request request;
  request.kind = kind;
  request.model = &model;
  request.pattern = &pattern;
  Response response = server.Evaluate(request);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  return response;
}

TEST(StoreIntegrationTest, WarmRestartAnswersFromDiskBitIdentically) {
  const std::string dir = TempStoreDir("warm");
  const infer::LabeledRimModel model = MakeModel(7, 0.6);
  const infer::LabelPattern pattern = Chain({0, 1, 2});
  const double expected = infer::PatternProb(model, pattern);

  // Cold run: compute, populate the store, flush on shutdown.
  {
    auto opened = store::Store::Open(FastStoreOptions(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<store::Store> persistent = std::move(opened).value();
    ServerOptions options;
    options.store = persistent.get();
    Server server(options);
    EXPECT_EQ(Serve(server, model, pattern).probability, expected);
    const Response top =
        Serve(server, model, pattern, Request::Kind::kTopMatching);
    ASSERT_TRUE(top.top_matching.has_value());
    const ServerStats cold = server.stats();
    EXPECT_EQ(cold.store_hits, 0u);
    EXPECT_GT(cold.store_writes, 0u);
    ASSERT_TRUE(persistent->Flush().ok());
  }  // server destroyed before the store it borrows

  // Warm run: a fresh server with empty caches answers from disk.
  auto reopened = store::Store::Open(FastStoreOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<store::Store> persistent = std::move(reopened).value();
  EXPECT_GT(persistent->stats().records, 0u);
  ServerOptions options;
  options.store = persistent.get();
  Server server(options);
  EXPECT_EQ(Serve(server, model, pattern).probability, expected);
  const Response top =
      Serve(server, model, pattern, Request::Kind::kTopMatching);
  ASSERT_TRUE(top.top_matching.has_value());
  EXPECT_EQ(infer::PatternProb(model, pattern), expected);
  const ServerStats warm = server.stats();
  EXPECT_GT(warm.store_hits, 0u);
  EXPECT_EQ(warm.store_corrupt, 0u);
}

TEST(StoreIntegrationTest, BatchPathPopulatesAndServesFromStore) {
  const std::string dir = TempStoreDir("batch");
  const infer::LabeledRimModel model = MakeModel(6, 0.4);
  const infer::LabelPattern pattern = Chain({1, 2});
  const double expected = infer::PatternProb(model, pattern);

  std::vector<Request> requests(2);
  requests[0].kind = Request::Kind::kPatternProb;
  requests[0].model = &model;
  requests[0].pattern = &pattern;
  requests[1].kind = Request::Kind::kTopMatching;
  requests[1].model = &model;
  requests[1].pattern = &pattern;
  {
    auto opened = store::Store::Open(FastStoreOptions(dir));
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<store::Store> persistent = std::move(opened).value();
    ServerOptions options;
    options.store = persistent.get();
    Server server(options);
    const std::vector<Response> responses = server.EvaluateBatch(requests);
    ASSERT_EQ(responses.size(), 2u);
    ASSERT_TRUE(responses[0].status.ok());
    EXPECT_EQ(responses[0].probability, expected);
    ASSERT_TRUE(responses[1].status.ok());
    ASSERT_TRUE(persistent->Flush().ok());
  }

  auto reopened = store::Store::Open(FastStoreOptions(dir));
  ASSERT_TRUE(reopened.ok());
  std::unique_ptr<store::Store> persistent = std::move(reopened).value();
  ServerOptions options;
  options.store = persistent.get();
  Server server(options);
  const std::vector<Response> responses = server.EvaluateBatch(requests);
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[0].status.ok());
  EXPECT_EQ(responses[0].probability, expected);
  ASSERT_TRUE(responses[1].status.ok());
  EXPECT_GT(server.stats().store_hits, 0u);
}

TEST(StoreIntegrationTest, CorruptStoreRecordDegradesToRecompute) {
  const std::string dir = TempStoreDir("corrupt");
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const infer::LabelPattern pattern = Chain({0, 2});
  const double expected = infer::PatternProb(model, pattern);

  // Plant an undecodable payload under the exact plan key the server will
  // look up. The segment CRC is fine (the store wrote it), so this models a
  // record written by a different build: the codec must reject it and the
  // server must recompute — corrupt storage is never silently wrong.
  const std::uint64_t plan_key = PlanKey(model, pattern, {});
  auto opened = store::Store::Open(FastStoreOptions(dir));
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<store::Store> persistent = std::move(opened).value();
  persistent->Put(store::RecordKind::kPlan, plan_key,
                  "definitely not a plan payload");
  ServerOptions options;
  options.store = persistent.get();
  Server server(options);
  EXPECT_EQ(Serve(server, model, pattern).probability, expected);
  const ServerStats stats = server.stats();
  EXPECT_GT(stats.store_corrupt, 0u);
}

TEST(StoreIntegrationTest, StorelessServerHasNoStoreTraffic) {
  const infer::LabeledRimModel model = MakeModel(6, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1});
  Server server;  // default options: no store
  EXPECT_EQ(Serve(server, model, pattern).probability,
            infer::PatternProb(model, pattern));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.store_hits, 0u);
  EXPECT_EQ(stats.store_misses, 0u);
  EXPECT_EQ(stats.store_writes, 0u);
  EXPECT_EQ(stats.store_corrupt, 0u);
}

TEST(StoreIntegrationTest, SweepWarmRestartServesCircuitFromDisk) {
  const std::string dir = TempStoreDir("sweep");
  const infer::LabeledRimModel model = MakeModel(7, 0.5);
  const infer::LabelPattern pattern = Chain({0, 1});
  const std::vector<std::vector<double>> params = {{0.25}, {0.5}, {0.75}};

  std::vector<double> cold_points;
  {
    auto opened = store::Store::Open(FastStoreOptions(dir));
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<store::Store> persistent = std::move(opened).value();
    ServerOptions options;
    options.store = persistent.get();
    Server server(options);
    StatusOr<std::vector<double>> swept =
        server.PatternProbSweep(model, pattern, params);
    ASSERT_TRUE(swept.ok()) << swept.status().ToString();
    cold_points = *swept;
    ASSERT_EQ(cold_points.size(), params.size());
    ASSERT_TRUE(persistent->Flush().ok());
  }

  auto reopened = store::Store::Open(FastStoreOptions(dir));
  ASSERT_TRUE(reopened.ok());
  std::unique_ptr<store::Store> persistent = std::move(reopened).value();
  ServerOptions options;
  options.store = persistent.get();
  Server server(options);
  StatusOr<std::vector<double>> swept =
      server.PatternProbSweep(model, pattern, params);
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  EXPECT_EQ(*swept, cold_points);
  // The circuit (and the plan it was compiled from) came off disk.
  EXPECT_GT(server.stats().store_hits, 0u);
}

}  // namespace
}  // namespace ppref::serve
