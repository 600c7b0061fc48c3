#include "ppref/ppd/monte_carlo_evaluator.h"

#include <gtest/gtest.h>

#include "ppref/ppd/evaluator.h"
#include "ppref/ppd/possible_worlds.h"
#include "ppref/query/parser.h"
#include "query/paper_queries.h"

namespace ppref::ppd {
namespace {

TEST(MonteCarloEvaluatorTest, ConvergesToItemwiseExactAnswer) {
  const RimPpd ppd = ElectionPpd();
  const auto q1 = ppref::testing::ParsePaperQuery(ppref::testing::kQ1);
  const double exact = EvaluateBoolean(ppd, q1);
  infer::McOptions options;
  options.samples = 20000;
  options.seed = 2024;
  const auto estimate = EstimateBoolean(ppd, q1, options);
  EXPECT_NEAR(estimate.estimate, exact, 5 * estimate.std_error + 1e-3);
}

TEST(MonteCarloEvaluatorTest, HandlesNonItemwiseQueries) {
  // Q2 is #P-hard exactly, but sampling applies unchanged.
  const RimPpd ppd = ElectionPpd();
  const auto q2 = ppref::testing::ParsePaperQuery(ppref::testing::kQ2);
  const double brute = EvaluateBooleanByEnumeration(ppd, q2);
  infer::McOptions options;
  options.samples = 20000;
  options.seed = 2025;
  const auto estimate = EstimateBoolean(ppd, q2, options);
  EXPECT_NEAR(estimate.estimate, brute, 5 * estimate.std_error + 1e-3);
}

TEST(MonteCarloEvaluatorTest, DeterministicQueriesAreExact) {
  const RimPpd ppd = ElectionPpd();
  const auto q = query::ParseQuery("Q() :- Candidates(_, 'D', 'F', _)",
                                   ppd.schema());
  infer::McOptions options;
  options.samples = 50;
  options.seed = 7;
  const auto estimate = EstimateBoolean(ppd, q, options);
  EXPECT_DOUBLE_EQ(estimate.estimate, 1.0);
  EXPECT_DOUBLE_EQ(estimate.std_error, 0.0);
}

TEST(MonteCarloEvaluatorTest, SeededOverloadIsThreadCountInvariant) {
  // `threads == 0` means auto (ClampThreads) and the blocked decomposition
  // keeps the estimate identical across thread counts.
  const RimPpd ppd = ElectionPpd();
  const auto q1 = ppref::testing::ParsePaperQuery(ppref::testing::kQ1);
  infer::McOptions serial;
  serial.samples = 4000;
  serial.seed = 17;
  serial.threads = 1;
  infer::McOptions automatic = serial;
  automatic.threads = 0;
  const auto a = EstimateBoolean(ppd, q1, serial);
  const auto b = EstimateBoolean(ppd, q1, automatic);
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.std_error, b.std_error);
  const double exact = EvaluateBoolean(ppd, q1);
  EXPECT_NEAR(a.estimate, exact, 5 * a.std_error + 1e-2);
}

}  // namespace
}  // namespace ppref::ppd
