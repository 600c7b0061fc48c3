/// \file golden_bits_test.cc
/// \brief Pinned bits of every seeded Monte-Carlo estimate in the tree.
///
/// Each test runs one seeded sampler at a fixed seed and budget and compares
/// its answer, printed as hex floats, with the bits recorded before the
/// samplers were folded onto one round loop. A changed draw, block
/// decomposition or reduction order changes a string here, so these tests
/// pin the claim that the seeded answers (and with them every cached and
/// stored hard answer) are unchanged.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "ppref/common/random.h"
#include "ppref/hard/consensus.h"
#include "ppref/hard/estimator.h"
#include "ppref/hard/world_pool.h"
#include "ppref/infer/labeling.h"
#include "ppref/infer/minmax_condition.h"
#include "ppref/infer/monte_carlo.h"
#include "ppref/ppd/monte_carlo_evaluator.h"
#include "ppref/ppd/ppd.h"
#include "ppref/rim/mallows.h"
#include "ppref/rim/ranking.h"
#include "ppref/serve/server.h"
#include "query/paper_queries.h"

namespace ppref::hard {
namespace {

std::string Hex(double x) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", x);
  return buffer;
}

/// "estimate std_error" of any Bernoulli-style estimate.
template <typename Estimate>
std::string Bits(const Estimate& e) {
  return Hex(e.estimate) + " " + Hex(e.std_error);
}

/// "estimate std_error n_samples target_met deadline_limited".
std::string Bits(const AdaptiveEstimate& e) {
  return Hex(e.estimate) + " " + Hex(e.std_error) + " " +
         std::to_string(e.n_samples) + " " + std::to_string(e.target_met) +
         " " + std::to_string(e.deadline_limited);
}

std::string Bits(const serve::Response& r) {
  std::string out = Hex(r.probability) + " " + Hex(r.std_error);
  if (r.top_matching.has_value()) {
    for (const auto node : *r.top_matching) out += " " + std::to_string(node);
  }
  return out;
}

infer::LabelPattern Chain(const std::vector<infer::LabelId>& labels) {
  infer::LabelPattern pattern;
  for (const infer::LabelId label : labels) pattern.AddNode(label);
  for (unsigned v = 1; v < labels.size(); ++v) pattern.AddEdge(v - 1, v);
  return pattern;
}

/// A Mallows model over ten items with sparse labels (label l on item 2l,
/// label 3 also on item 1) and four chain patterns whose probabilities lie
/// well inside (0, 1), so that adaptive queries stop in different rounds.
struct Fixture {
  Fixture() : model(MakeModel()) {
    patterns.push_back(Chain({1, 0}));
    patterns.push_back(Chain({0, 3}));
    patterns.push_back(Chain({2, 1, 0}));
    patterns.push_back(Chain({3, 2}));
    for (const auto& pattern : patterns) pointers.push_back(&pattern);
  }
  static infer::LabeledRimModel MakeModel() {
    infer::ItemLabeling labeling(10);
    for (infer::LabelId label = 0; label < 4; ++label) {
      labeling.AddLabel(2 * label, label);
    }
    labeling.AddLabel(1, 3);
    return infer::LabeledRimModel(
        rim::MallowsModel(rim::Ranking::Identity(10), 0.7).rim(), labeling);
  }
  infer::LabeledRimModel model;
  std::vector<infer::LabelPattern> patterns;
  std::vector<const infer::LabelPattern*> pointers;
};

TEST(HardGoldenBitsTest, PooledWithTarget) {
  const Fixture f;
  AdaptiveOptions options;
  options.target_half_width = 0.02;
  options.max_samples = 1u << 15;
  options.seed = 53;
  options.threads = 2;
  const std::vector<AdaptiveEstimate> pooled =
      EstimatePatternProbsPooled(f.model, f.pointers, options);
  ASSERT_EQ(pooled.size(), 4u);
  EXPECT_EQ(Bits(pooled[0]), "0x1.644p-2 0x1.e7bc4b0a6f182p-8 4096 1 0");
  EXPECT_EQ(Bits(pooled[1]), "0x1.c78p-1 0x1.40d8e9aebb21ep-7 1024 1 0");
  EXPECT_EQ(Bits(pooled[2]), "0x1.9p-5 0x1.b95c8d37c8daap-8 1024 1 0");
  EXPECT_EQ(Bits(pooled[3]), "0x1.848p-1 0x1.35c5f743bb9eep-7 2048 1 0");
}

TEST(HardGoldenBitsTest, PooledFixedBudget) {
  const Fixture f;
  AdaptiveOptions options;
  options.target_half_width = 0.0;
  options.max_samples = 10000;  // the last block is short
  options.block_samples = 1024;
  options.seed = 5;
  options.threads = 3;
  const std::vector<AdaptiveEstimate> pooled =
      EstimatePatternProbsPooled(f.model, f.pointers, options);
  ASSERT_EQ(pooled.size(), 4u);
  EXPECT_EQ(Bits(pooled[0]),
            "0x1.6809d495182aap-2 0x1.38ea251c8cbb8p-8 10000 0 0");
  EXPECT_EQ(Bits(pooled[1]),
            "0x1.bf212d77318fcp-1 0x1.b3fe52abd6e4p-9 10000 0 0");
  EXPECT_EQ(Bits(pooled[2]),
            "0x1.ced916872b021p-5 0x1.2ea00db33012dp-9 10000 0 0");
  EXPECT_EQ(Bits(pooled[3]),
            "0x1.7c1bda5119cep-1 0x1.1e98ddb54011bp-8 10000 0 0");
}

TEST(HardGoldenBitsTest, PatternProbMonteCarlo) {
  const Fixture f;
  infer::McOptions options;
  options.samples = 5000;
  options.seed = 42;
  options.threads = 2;
  EXPECT_EQ(Bits(infer::PatternProbMonteCarlo(f.model, f.patterns[2],
                                              options)),
            "0x1.e353f7ced9168p-5 0x1.b4c34d762a409p-9");
}

TEST(HardGoldenBitsTest, PatternMinMaxProbMonteCarlo) {
  const Fixture f;
  infer::McOptions options;
  options.samples = 6000;
  options.seed = 7;
  options.threads = 2;
  const std::vector<infer::LabelId> tracked = {0, 1};
  EXPECT_EQ(Bits(infer::PatternMinMaxProbMonteCarlo(
                f.model, f.patterns[3], tracked, infer::AllBefore(0, 1),
                options)),
            "0x1.ebdc8057619f1p-2 0x1.a6b4a868c079dp-8");
}

TEST(HardGoldenBitsTest, TopMatchingMonteCarlo) {
  const Fixture f;
  infer::McOptions options;
  options.samples = 3000;
  options.seed = 11;
  options.threads = 2;
  const infer::McTopMatching top =
      infer::TopMatchingMonteCarlo(f.model, f.patterns[1], options);
  std::string matching;
  for (const auto node : top.matching) matching += std::to_string(node) + " ";
  EXPECT_EQ(matching + Hex(top.frequency) + " " + Hex(top.std_error),
            "0 1 0x1.cd7b900aec33ep-2 0x1.29ab823223695p-7");
}

TEST(HardGoldenBitsTest, PpdEstimateBoolean) {
  const ppd::RimPpd ppd = ppd::ElectionPpd();
  infer::McOptions options;
  options.samples = 1000;
  options.seed = 17;
  options.threads = 2;
  EXPECT_EQ(Bits(ppd::EstimateBoolean(
                ppd, ppref::testing::ParsePaperQuery(ppref::testing::kQ1),
                options)),
            "0x1.3b645a1cac083p-2 0x1.de62c827f3a5bp-7");
  EXPECT_EQ(Bits(ppd::EstimateBoolean(
                ppd, ppref::testing::ParsePaperQuery(ppref::testing::kQ2),
                options)),
            "0x1.ac083126e978dp-1 0x1.7faf666474e0dp-7");
}

TEST(HardGoldenBitsTest, ConsensusRanking) {
  const Fixture f;
  ConsensusOptions options;
  options.samples = 2000;
  options.block_samples = 512;
  options.seed = 3;
  options.threads = 2;
  const ConsensusResult result = ConsensusRanking(f.model.model(), options);
  std::string ranking;
  for (const auto item : result.ranking) ranking += std::to_string(item) + " ";
  EXPECT_EQ(ranking + Hex(result.mean_footrule) + " " +
                Hex(result.footrule_std_error) + " " +
                Hex(result.mean_kendall) + " " +
                Hex(result.kendall_std_error) + " " +
                std::to_string(result.n_samples),
            "0 1 2 3 4 5 6 7 8 9 0x1.4851eb851eb84p+4 "
            "0x1.333a47f6d1d63p-3 0x1.969ba5e353f7cp+3 "
            "0x1.ab8f18d72cb8p-4 2000");
}

TEST(HardGoldenBitsTest, DegradedServerAnswers) {
  const Fixture f;
  serve::ServerOptions options;
  options.degradation = serve::ServerOptions::Degradation::kMonteCarlo;
  options.degraded_samples = 3000;
  options.max_pattern_nodes = 1;  // every two-node pattern is size-guarded
  serve::Server server(options);
  serve::Request request;
  request.model = &f.model;
  request.pattern = &f.patterns[1];
  // Size-guard degradation: no deadline, so the full fixed budget.
  EXPECT_EQ(Bits(server.Evaluate(request)),
            "0x1.c8057619f0fb4p-1 0x1.7561c0972b6fdp-8");
  request.kind = serve::Request::Kind::kTopMatching;
  EXPECT_EQ(Bits(server.Evaluate(request)),
            "0x1.d555555555555p-2 0x1.2a16cec12ce84p-7 0 1");

  // Deadline degradation: the deadline's value sets a precision target, so
  // the estimate stops early.
  serve::ServerOptions timed_options;
  timed_options.degradation = serve::ServerOptions::Degradation::kMonteCarlo;
  timed_options.degraded_samples = 1u << 16;
  serve::Server timed(timed_options);
  serve::Request deadline_request;
  deadline_request.model = &f.model;
  deadline_request.pattern = &f.patterns[0];
  deadline_request.control.deadline_ns = 1;
  const serve::Response response = timed.Evaluate(deadline_request);
  ASSERT_TRUE(response.approximate);
  EXPECT_EQ(Bits(response), "0x1.75p-2 0x1.ecc54f120186ap-7");
}

TEST(HardGoldenBitsTest, ServedHardBatch) {
  const Fixture f;
  serve::Server server;
  const auto batch = server.HardPatternProbBatch(f.model, f.pointers, 0.02);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 4u);
  std::string bits;
  for (const serve::HardEstimate& e : batch.value()) {
    bits += Hex(e.estimate) + " " + Hex(e.std_error) + " " +
            std::to_string(e.n_samples) + "; ";
  }
  EXPECT_EQ(bits,
            "0x1.6bp-2 0x1.e9d6fb25fe74p-8 4096; 0x1.becp-1 "
            "0x1.e2e956ebfe1dcp-8 2048; 0x1.98p-5 0x1.bd863fbd9d84fp-8 "
            "1024; 0x1.7ep-1 0x1.3b26980c6597ap-7 2048; ");
}

}  // namespace
}  // namespace ppref::hard
