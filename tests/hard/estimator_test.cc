/// \file estimator_test.cc
/// \brief hard::estimator contract tests: Welford statistics match the
/// two-pass formulas, the adaptive loop is thread-count invariant and
/// reduces bit-exactly to the fixed-budget estimate when the target is
/// disabled, early stop fires only when honest, and — the statistical gate —
/// the reported confidence interval empirically covers brute-force ground
/// truth at close to its nominal rate.

#include "ppref/hard/estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ppref/common/deadline.h"
#include "ppref/common/random.h"
#include "ppref/infer/labeling.h"
#include "ppref/infer/matching.h"
#include "ppref/infer/top_prob.h"
#include "ppref/rim/mallows.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/sampler.h"
#include "hard/serial_reference.h"
#include "test_util.h"

namespace ppref::hard {
namespace {

/// The Bernoulli block body every hard pattern query runs: sample a world,
/// count pattern matches.
std::function<unsigned(Rng&, unsigned, unsigned)> PatternHits(
    const infer::LabeledRimModel& model, const infer::LabelPattern& pattern) {
  return [&model, &pattern](Rng& rng, unsigned begin, unsigned end) {
    unsigned hits = 0;
    for (unsigned s = begin; s < end; ++s) {
      const rim::Ranking tau = rim::SampleRanking(model.model(), rng);
      if (infer::Matches(pattern, model.labeling(), tau)) ++hits;
    }
    return hits;
  };
}

TEST(HardEstimatorTest, WelfordMatchesTwoPassFormulas) {
  const std::vector<double> xs = {0.5, 1.5, -2.0, 4.25, 0.0, 3.5, -1.25};
  WelfordAccumulator acc;
  for (double x : xs) acc.Add(x);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double m2 = 0.0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  const double variance = m2 / static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(acc.mean(), mean, 1e-12);
  EXPECT_NEAR(acc.variance(), variance, 1e-12);
  EXPECT_NEAR(acc.std_error(),
              std::sqrt(variance / static_cast<double>(xs.size())), 1e-12);
}

TEST(HardEstimatorTest, WelfordMergeEqualsSerialPass) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.NextUnit() * 10.0 - 5.0);
  WelfordAccumulator serial;
  for (double x : xs) serial.Add(x);
  // Merge in chunk order — the contract block-parallel reductions rely on.
  WelfordAccumulator merged;
  for (std::size_t begin = 0; begin < xs.size(); begin += 137) {
    WelfordAccumulator chunk;
    const std::size_t end = std::min(xs.size(), begin + 137);
    for (std::size_t i = begin; i < end; ++i) chunk.Add(xs[i]);
    merged.Merge(chunk);
  }
  EXPECT_EQ(serial.count(), merged.count());
  EXPECT_NEAR(serial.mean(), merged.mean(), 1e-12);
  EXPECT_NEAR(serial.variance(), merged.variance(), 1e-10);
}

TEST(HardEstimatorTest, BernoulliCountFormula) {
  const BernoulliEstimate half = EstimateFromBernoulliCount(50, 100);
  EXPECT_DOUBLE_EQ(half.estimate, 0.5);
  EXPECT_DOUBLE_EQ(half.std_error, std::sqrt(0.25 / 100.0));
  const BernoulliEstimate sure = EstimateFromBernoulliCount(100, 100);
  EXPECT_DOUBLE_EQ(sure.estimate, 1.0);
  EXPECT_DOUBLE_EQ(sure.std_error, 0.0);
}

TEST(HardEstimatorTest, RoundScheduleIsOneOneDoublingCapped) {
  EXPECT_EQ(AdaptiveRoundBlocks(0), 1u);
  EXPECT_EQ(AdaptiveRoundBlocks(1), 1u);
  EXPECT_EQ(AdaptiveRoundBlocks(2), 2u);
  EXPECT_EQ(AdaptiveRoundBlocks(3), 4u);
  EXPECT_EQ(AdaptiveRoundBlocks(4), 8u);
  EXPECT_EQ(AdaptiveRoundBlocks(5), 16u);
  EXPECT_EQ(AdaptiveRoundBlocks(6), 32u);
  EXPECT_EQ(AdaptiveRoundBlocks(7), 32u);
  EXPECT_EQ(AdaptiveRoundBlocks(100), 32u);
}

TEST(HardEstimatorTest, DisabledTargetReducesToFixedBudgetBits) {
  Rng setup(11);
  const auto model = ppref::testing::RandomLabeledMallows(7, 0.6, 2, 0.5,
                                                          setup);
  const auto pattern = ppref::testing::RandomDagPattern(2, 0.5, setup);
  AdaptiveOptions options;
  options.target_half_width = 0.0;  // precision stop disabled
  options.max_samples = 8192;
  options.block_samples = 1024;
  options.seed = 23;
  const AdaptiveEstimate adaptive =
      EstimateBernoulliAdaptive(options, PatternHits(model, pattern));
  EXPECT_EQ(adaptive.n_samples, 8192u);
  EXPECT_FALSE(adaptive.target_met);
  EXPECT_FALSE(adaptive.deadline_limited);
  // Same draws, same reduction order -> bit-identical to a plain serial
  // pass over the same seeded blocks.
  const AdaptiveEstimate fixed = ppref::testing::SerialAdaptiveReference(
      options, [&](Rng& rng) {
        return infer::Matches(pattern, model.labeling(),
                              rim::SampleRanking(model.model(), rng));
      });
  EXPECT_EQ(adaptive.estimate, fixed.estimate);
  EXPECT_EQ(adaptive.std_error, fixed.std_error);
  EXPECT_EQ(adaptive.n_samples, fixed.n_samples);
}

TEST(HardEstimatorTest, FixedBudgetIsThreadCountInvariant) {
  // A body that actually consumes randomness — per-draw Bernoulli(0.3) —
  // so any per-thread stream sharing would corrupt the count. With the
  // target disabled and no budget, every block runs in one round.
  const auto body = [](Rng& rng, unsigned begin, unsigned end) {
    unsigned hits = 0;
    for (unsigned s = begin; s < end; ++s) {
      if (rng.NextUnit() < 0.3) ++hits;
    }
    return hits;
  };
  AdaptiveOptions options;
  options.target_half_width = 0.0;
  options.max_samples = 5000;
  options.block_samples = 256;
  options.seed = 42;
  options.threads = 1;
  const AdaptiveEstimate serial = EstimateBernoulliAdaptive(options, body);
  options.threads = 4;
  const AdaptiveEstimate parallel = EstimateBernoulliAdaptive(options, body);
  options.threads = 0;  // auto
  const AdaptiveEstimate automatic = EstimateBernoulliAdaptive(options, body);
  EXPECT_EQ(serial.estimate, parallel.estimate);
  EXPECT_EQ(serial.std_error, parallel.std_error);
  EXPECT_EQ(serial.estimate, automatic.estimate);
  EXPECT_EQ(serial.n_samples, 5000u);
  // And the estimate is plausible for p = 0.3 over 5000 draws.
  EXPECT_GT(serial.estimate, 0.25);
  EXPECT_LT(serial.estimate, 0.35);
}

TEST(HardEstimatorTest, AdaptiveIsThreadCountInvariant) {
  Rng setup(13);
  const auto model = ppref::testing::RandomLabeledMallows(8, 0.5, 2, 0.4,
                                                          setup);
  const auto pattern = ppref::testing::RandomDagPattern(2, 0.6, setup);
  AdaptiveOptions options;
  options.target_half_width = 0.02;
  options.max_samples = 1u << 16;
  options.seed = 31;
  options.threads = 1;
  const AdaptiveEstimate serial =
      EstimateBernoulliAdaptive(options, PatternHits(model, pattern));
  options.threads = 4;
  const AdaptiveEstimate parallel =
      EstimateBernoulliAdaptive(options, PatternHits(model, pattern));
  options.threads = 0;  // auto
  const AdaptiveEstimate automatic =
      EstimateBernoulliAdaptive(options, PatternHits(model, pattern));
  EXPECT_EQ(serial.estimate, parallel.estimate);
  EXPECT_EQ(serial.std_error, parallel.std_error);
  EXPECT_EQ(serial.n_samples, parallel.n_samples);
  EXPECT_EQ(serial.target_met, parallel.target_met);
  EXPECT_EQ(serial.estimate, automatic.estimate);
  EXPECT_EQ(serial.n_samples, automatic.n_samples);
}

TEST(HardEstimatorTest, EarlyStopSpendsLessAndHonorsTarget) {
  Rng setup(17);
  const auto model = ppref::testing::RandomLabeledMallows(7, 0.7, 2, 0.5,
                                                          setup);
  const auto pattern = ppref::testing::RandomDagPattern(1, 0.0, setup);
  AdaptiveOptions options;
  options.target_half_width = 0.05;  // loose: stops long before the cap
  options.max_samples = 1u << 18;
  options.seed = 37;
  const AdaptiveEstimate estimate =
      EstimateBernoulliAdaptive(options, PatternHits(model, pattern));
  EXPECT_TRUE(estimate.target_met);
  EXPECT_FALSE(estimate.deadline_limited);
  EXPECT_LT(estimate.n_samples, options.max_samples);
  EXPECT_GE(estimate.n_samples, options.min_samples);
  EXPECT_LE(options.z * estimate.std_error, options.target_half_width);
}

TEST(HardEstimatorTest, ExpiredBudgetStopsWithHonestError) {
  Rng setup(19);
  const auto model = ppref::testing::RandomLabeledMallows(7, 0.6, 2, 0.5,
                                                          setup);
  const auto pattern = ppref::testing::RandomDagPattern(2, 0.5, setup);
  const Deadline expired = Deadline::After(0);
  AdaptiveOptions options;
  options.target_half_width = 0.0;  // disabled: only the budget can stop
                                    // before the cap
  options.max_samples = 1u << 18;
  options.seed = 41;
  options.budget = &expired;
  const AdaptiveEstimate estimate =
      EstimateBernoulliAdaptive(options, PatternHits(model, pattern));
  EXPECT_TRUE(estimate.deadline_limited);
  EXPECT_FALSE(estimate.target_met);
  // It stopped after the first round — one block — but still reports the
  // estimate and the error it actually achieved.
  EXPECT_EQ(estimate.n_samples, 1024u);
  EXPECT_GE(estimate.std_error, 0.0);
}

TEST(HardEstimatorTest, ConfidenceIntervalCoversGroundTruthEmpirically) {
  // The statistical gate: over many independent seeds, the 95% interval
  // [estimate +/- z * std_error] must contain the exact PatternProb at
  // close to its nominal rate. 60 trials at a true coverage of 95% fail
  // this >= 51 bound with probability < 1e-4 (binomial tail), so the gate
  // is sharp but not flaky.
  infer::ItemLabeling labeling(6);
  for (unsigned item = 0; item < 6; ++item) labeling.AddLabel(item, item % 3);
  const infer::LabeledRimModel model(
      rim::MallowsModel(rim::Ranking::Identity(6), 0.6).rim(), labeling);
  infer::LabelPattern pattern;
  const unsigned above = pattern.AddNode(2);
  const unsigned below = pattern.AddNode(0);
  pattern.AddEdge(above, below);
  const double exact = infer::PatternProb(model, pattern);  // ~0.73
  ASSERT_GT(exact, 0.1);
  ASSERT_LT(exact, 0.9);
  const int trials = 60;
  int covered = 0;
  for (int t = 0; t < trials; ++t) {
    AdaptiveOptions options;
    options.target_half_width = 0.02;
    options.max_samples = 1u << 15;
    options.seed = 1000 + static_cast<std::uint64_t>(t);
    const AdaptiveEstimate estimate =
        EstimateBernoulliAdaptive(options, PatternHits(model, pattern));
    if (std::abs(estimate.estimate - exact) <=
        options.z * estimate.std_error) {
      ++covered;
    }
  }
  EXPECT_GE(covered, 51) << "95% CI covered ground truth only " << covered
                         << "/" << trials << " times";
}

}  // namespace
}  // namespace ppref::hard
