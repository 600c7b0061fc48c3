/// \file world_pool_test.cc
/// \brief hard::world_pool contract tests: pooled answers are bit-identical
/// to solo adaptive runs at the same seed (the sharing rule), the pool is
/// thread-count invariant, and per-query early exit leaves the other
/// queries' streams untouched.

#include "ppref/hard/world_pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "ppref/common/deadline.h"
#include "ppref/common/random.h"
#include "ppref/hard/estimator.h"
#include "ppref/infer/matching.h"
#include "ppref/rim/sampler.h"
#include "hard/serial_reference.h"
#include "test_util.h"

namespace ppref::hard {
namespace {

/// Solo run of one pattern — the per-query baseline the pool promises to
/// reproduce bit for bit — as a plain serial pass over the seeded blocks.
AdaptiveEstimate Solo(const infer::LabeledRimModel& model,
                      const infer::LabelPattern& pattern,
                      const AdaptiveOptions& options) {
  return ppref::testing::SerialAdaptiveReference(options, [&](Rng& rng) {
    return infer::Matches(pattern, model.labeling(),
                          rim::SampleRanking(model.model(), rng));
  });
}

TEST(HardWorldPoolTest, PooledAnswersBitIdenticalToSoloRuns) {
  Rng setup(47);
  const auto model = ppref::testing::RandomLabeledMallows(8, 0.5, 3, 0.4,
                                                          setup);
  // Patterns of very different selectivity, so their stopping rounds differ
  // and early exits actually happen mid-pool.
  std::vector<infer::LabelPattern> patterns;
  patterns.push_back(ppref::testing::RandomDagPattern(1, 0.0, setup));
  patterns.push_back(ppref::testing::RandomDagPattern(2, 1.0, setup));
  patterns.push_back(ppref::testing::RandomDagPattern(3, 0.5, setup));
  patterns.push_back(ppref::testing::RandomDagPattern(2, 0.0, setup));

  AdaptiveOptions options;
  options.target_half_width = 0.02;
  options.max_samples = 1u << 15;
  options.seed = 53;

  std::vector<const infer::LabelPattern*> pointers;
  for (const auto& pattern : patterns) pointers.push_back(&pattern);
  const std::vector<AdaptiveEstimate> pooled =
      EstimatePatternProbsPooled(model, pointers, options);
  ASSERT_EQ(pooled.size(), patterns.size());

  for (std::size_t q = 0; q < patterns.size(); ++q) {
    const AdaptiveEstimate solo = Solo(model, patterns[q], options);
    EXPECT_EQ(pooled[q].estimate, solo.estimate) << "query " << q;
    EXPECT_EQ(pooled[q].std_error, solo.std_error) << "query " << q;
    EXPECT_EQ(pooled[q].n_samples, solo.n_samples) << "query " << q;
    EXPECT_EQ(pooled[q].target_met, solo.target_met) << "query " << q;
    EXPECT_EQ(pooled[q].deadline_limited, solo.deadline_limited)
        << "query " << q;
  }
}

TEST(HardWorldPoolTest, PoolIsThreadCountInvariant) {
  Rng setup(59);
  const auto model = ppref::testing::RandomLabeledMallows(7, 0.6, 2, 0.5,
                                                          setup);
  std::vector<infer::LabelPattern> patterns;
  patterns.push_back(ppref::testing::RandomDagPattern(2, 0.5, setup));
  patterns.push_back(ppref::testing::RandomDagPattern(2, 1.0, setup));
  std::vector<const infer::LabelPattern*> pointers;
  for (const auto& pattern : patterns) pointers.push_back(&pattern);

  AdaptiveOptions options;
  options.target_half_width = 0.02;
  options.max_samples = 1u << 14;
  options.seed = 61;
  options.threads = 1;
  const std::vector<AdaptiveEstimate> serial =
      EstimatePatternProbsPooled(model, pointers, options);
  options.threads = 4;
  const std::vector<AdaptiveEstimate> parallel =
      EstimatePatternProbsPooled(model, pointers, options);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t q = 0; q < serial.size(); ++q) {
    EXPECT_EQ(serial[q].estimate, parallel[q].estimate);
    EXPECT_EQ(serial[q].std_error, parallel[q].std_error);
    EXPECT_EQ(serial[q].n_samples, parallel[q].n_samples);
  }
}

TEST(HardWorldPoolTest, EmptyBatchReturnsEmpty) {
  Rng setup(67);
  const auto model = ppref::testing::RandomLabeledMallows(5, 0.5, 2, 0.5,
                                                          setup);
  const std::vector<const infer::LabelPattern*> none;
  EXPECT_TRUE(EstimatePatternProbsPooled(model, none, {}).empty());
}

TEST(HardWorldPoolTest, ExpiredBudgetMarksUnconvergedQueriesOnly) {
  Rng setup(71);
  const auto model = ppref::testing::RandomLabeledMallows(6, 0.5, 2, 0.5,
                                                          setup);
  std::vector<infer::LabelPattern> patterns;
  patterns.push_back(ppref::testing::RandomDagPattern(2, 0.5, setup));
  patterns.push_back(ppref::testing::RandomDagPattern(3, 0.5, setup));
  std::vector<const infer::LabelPattern*> pointers;
  for (const auto& pattern : patterns) pointers.push_back(&pattern);

  const Deadline expired = Deadline::After(0);
  AdaptiveOptions options;
  options.target_half_width = 0.0;  // disabled: only the budget can stop
                                    // before the cap
  options.max_samples = 1u << 16;
  options.seed = 73;
  options.budget = &expired;
  const std::vector<AdaptiveEstimate> pooled =
      EstimatePatternProbsPooled(model, pointers, options);
  for (const AdaptiveEstimate& estimate : pooled) {
    EXPECT_TRUE(estimate.deadline_limited);
    EXPECT_FALSE(estimate.target_met);
    EXPECT_EQ(estimate.n_samples, 1024u);  // stopped after round 0
  }
}

}  // namespace
}  // namespace ppref::hard
