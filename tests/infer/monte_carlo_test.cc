#include "ppref/infer/monte_carlo.h"

#include <gtest/gtest.h>

#include "ppref/infer/top_prob.h"
#include "ppref/infer/top_prob_minmax.h"
#include "test_util.h"

namespace ppref::infer {
namespace {

TEST(MonteCarloTest, ConvergesToExactPatternProb) {
  Rng rng(71);
  const auto model = ppref::testing::RandomLabeledMallows(8, 0.6, 2, 0.4, rng);
  LabelPattern pattern;
  pattern.AddNode(0);
  pattern.AddNode(1);
  pattern.AddEdge(0, 1);
  const double exact = PatternProb(model, pattern);
  McOptions options;
  options.samples = 40000;
  options.seed = 71;
  const auto estimate = PatternProbMonteCarlo(model, pattern, options);
  EXPECT_NEAR(estimate.estimate, exact, 5 * estimate.std_error + 1e-3);
}

TEST(MonteCarloTest, StdErrorShrinksWithSamples) {
  Rng rng(73);
  const auto model = ppref::testing::RandomLabeledMallows(6, 0.8, 2, 0.5, rng);
  LabelPattern pattern;
  pattern.AddNode(0);
  McOptions options;
  options.seed = 73;
  options.samples = 100;
  const auto small = PatternProbMonteCarlo(model, pattern, options);
  options.samples = 10000;
  const auto large = PatternProbMonteCarlo(model, pattern, options);
  // Degenerate cases (p = 0 or 1) give zero std error; guard against them.
  if (small.std_error > 0 && large.std_error > 0) {
    EXPECT_LT(large.std_error, small.std_error);
  }
}

TEST(MonteCarloTest, CertainEventEstimatesOne) {
  ItemLabeling labeling(4);
  labeling.AddLabel(1, 0);
  const LabeledRimModel model(
      rim::RimModel(rim::Ranking::Identity(4),
                    rim::InsertionFunction::Uniform(4)),
      labeling);
  LabelPattern pattern;
  pattern.AddNode(0);
  McOptions options;
  options.samples = 500;
  options.seed = 79;
  const auto estimate = PatternProbMonteCarlo(model, pattern, options);
  EXPECT_DOUBLE_EQ(estimate.estimate, 1.0);
  EXPECT_DOUBLE_EQ(estimate.std_error, 0.0);
}

TEST(MonteCarloTest, MinMaxEstimatorConvergesToExact) {
  Rng rng(83);
  const auto model = ppref::testing::RandomLabeledMallows(7, 0.5, 2, 0.5, rng);
  const std::vector<LabelId> tracked = {0, 1};
  const MinMaxCondition condition = AllBefore(0, 1);
  const double exact = MinMaxProb(model, tracked, condition);
  McOptions options;
  options.samples = 40000;
  options.seed = 83;
  const auto estimate = PatternMinMaxProbMonteCarlo(
      model, LabelPattern{}, tracked, condition, options);
  EXPECT_NEAR(estimate.estimate, exact, 5 * estimate.std_error + 1e-3);
}

TEST(MonteCarloTest, SeededOptionsAreThreadCountInvariant) {
  // The blocked decomposition promises the estimate is a pure function of
  // (seed, samples) — the serve layer's degradation path relies on it to
  // reproduce approximate answers.
  Rng rng(89);
  const auto model = ppref::testing::RandomLabeledMallows(8, 0.6, 2, 0.4, rng);
  LabelPattern pattern;
  pattern.AddNode(0);
  pattern.AddNode(1);
  pattern.AddEdge(0, 1);
  McOptions serial;
  serial.samples = 5000;
  serial.seed = 42;
  serial.threads = 1;
  McOptions parallel = serial;
  parallel.threads = 4;
  McOptions automatic = serial;
  automatic.threads = 0;  // auto, per ClampThreads
  const auto a = PatternProbMonteCarlo(model, pattern, serial);
  const auto b = PatternProbMonteCarlo(model, pattern, parallel);
  const auto c = PatternProbMonteCarlo(model, pattern, automatic);
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.std_error, b.std_error);
  EXPECT_EQ(a.estimate, c.estimate);
  // And it converges to the exact answer.
  const double exact = PatternProb(model, pattern);
  EXPECT_NEAR(a.estimate, exact, 5 * a.std_error + 1e-2);
}

TEST(MonteCarloTest, SeededOptionsConvergeForMinMax) {
  Rng rng(97);
  const auto model = ppref::testing::RandomLabeledMallows(7, 0.5, 2, 0.5, rng);
  const std::vector<LabelId> tracked = {0, 1};
  const MinMaxCondition condition = AllBefore(0, 1);
  const double exact = MinMaxProb(model, tracked, condition);
  McOptions options;
  options.samples = 40000;
  options.seed = 7;
  options.threads = 2;
  const auto estimate = PatternMinMaxProbMonteCarlo(
      model, LabelPattern{}, tracked, condition, options);
  EXPECT_NEAR(estimate.estimate, exact, 5 * estimate.std_error + 1e-3);
}

TEST(MonteCarloTest, TopMatchingSamplerFindsTheExactWinner) {
  Rng rng(101);
  const auto model = ppref::testing::RandomLabeledMallows(8, 0.4, 2, 0.5, rng);
  LabelPattern pattern;
  pattern.AddNode(0);
  pattern.AddNode(1);
  pattern.AddEdge(0, 1);
  const auto exact = MostProbableTopMatching(model, pattern);
  ASSERT_TRUE(exact.has_value());
  McOptions options;
  options.samples = 30000;
  options.seed = 11;
  const McTopMatching sampled = TopMatchingMonteCarlo(model, pattern, options);
  EXPECT_EQ(sampled.matching, exact->first);
  EXPECT_NEAR(sampled.frequency, exact->second,
              5 * sampled.std_error + 1e-2);
  // Reproducible: same options, same answer, bit for bit.
  const McTopMatching again = TopMatchingMonteCarlo(model, pattern, options);
  EXPECT_EQ(again.matching, sampled.matching);
  EXPECT_EQ(again.frequency, sampled.frequency);
}

TEST(MonteCarloTest, TopMatchingSamplerHandlesUnmatchablePattern) {
  // A cyclic pattern matches no ranking: the modal matching is empty with
  // zero frequency.
  Rng rng(103);
  const auto model = ppref::testing::RandomLabeledMallows(6, 0.5, 2, 0.5, rng);
  LabelPattern pattern;
  pattern.AddNode(0);
  pattern.AddNode(1);
  pattern.AddEdge(0, 1);
  pattern.AddEdge(1, 0);
  McOptions options;
  options.samples = 200;
  const McTopMatching sampled = TopMatchingMonteCarlo(model, pattern, options);
  EXPECT_TRUE(sampled.matching.empty());
  EXPECT_DOUBLE_EQ(sampled.frequency, 0.0);
}

}  // namespace
}  // namespace ppref::infer
