#include "ppref/ppd/monte_carlo_evaluator.h"

#include <gtest/gtest.h>

#include "ppref/ppd/evaluator.h"
#include "ppref/ppd/possible_worlds.h"
#include "ppref/ppd/ucq_evaluator.h"
#include "query/paper_queries.h"

namespace ppref::ppd {
namespace {

TEST(ApproxTest, HoeffdingSampleCounts) {
  // N = ceil(ln(2/δ) / (2 ε²)).
  EXPECT_EQ(HoeffdingSamples(0.1, 0.05), 185u);
  EXPECT_EQ(HoeffdingSamples(0.01, 0.05), 18445u);
  // Tighter δ only grows logarithmically.
  EXPECT_LT(HoeffdingSamples(0.1, 0.01) / static_cast<double>(
                HoeffdingSamples(0.1, 0.1)),
            2.0);
}

TEST(ApproxDeathTest, InvalidParametersRejected) {
  const RimPpd ppd = ElectionPpd();
  EXPECT_DEATH(HoeffdingSamples(0.0, 0.1), "epsilon");
  EXPECT_DEATH(HoeffdingSamples(0.1, 1.5), "delta");
  // ln(20) / (2 * 1e-10) ~ 1.5e10 samples: more than the counter holds.
  EXPECT_DEATH(HoeffdingSamples(1e-5, 0.1), "samples");
  EXPECT_FALSE(ValidateHoeffding(1e-5, 0.1).ok());
  EXPECT_TRUE(ValidateHoeffding(0.05, 0.01).ok());
}

TEST(ApproxTest, EstimateWithinEpsilonOfExact) {
  const RimPpd ppd = ElectionPpd();
  const auto q1 = ppref::testing::ParsePaperQuery(ppref::testing::kQ1);
  const double exact = EvaluateBoolean(ppd, q1);
  const ApproxResult result = ApproximateBoolean(ppd, q1, 0.05, 0.01, 31415);
  EXPECT_EQ(result.samples, HoeffdingSamples(0.05, 0.01));
  // The guarantee holds w.p. 0.99; with this fixed seed it must hold.
  EXPECT_NEAR(result.estimate, exact, result.epsilon);
}

TEST(ApproxTest, WorksOnHardQueries) {
  const RimPpd ppd = ElectionPpd();
  const auto q2 = ppref::testing::ParsePaperQuery(ppref::testing::kQ2);
  const double brute = EvaluateBooleanByEnumeration(ppd, q2);
  const ApproxResult result = ApproximateBoolean(ppd, q2, 0.05, 0.01, 2718);
  EXPECT_NEAR(result.estimate, brute, result.epsilon);
}

TEST(ApproxTest, UnionVariantMatchesExactUnion) {
  const RimPpd ppd = ElectionPpd();
  const auto ucq = query::ParseUnionQuery(
      "Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders') UNION "
      "Q() :- Polls('Bob', 'Oct-5'; 'Trump'; 'Sanders')",
      ppd.schema());
  const double exact = EvaluateBooleanUnion(ppd, ucq);
  const ApproxResult result =
      ApproximateBooleanUnion(ppd, ucq, 0.05, 0.01, 161803);
  EXPECT_NEAR(result.estimate, exact, result.epsilon);
}

}  // namespace
}  // namespace ppref::ppd
