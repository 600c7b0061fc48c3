/// End-to-end randomized validation: random small PPDs and randomly
/// instantiated itemwise query templates, with the polynomial evaluator
/// checked against exhaustive possible-world enumeration. This exercises
/// the full pipeline (parser -> classification -> §4.4 reduction -> TopProb
/// -> session combination) across shapes the hand-written tests miss.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ppref/common/random.h"
#include "ppref/ppd/evaluator.h"
#include "ppref/ppd/possible_worlds.h"
#include "ppref/ppd/ucq_evaluator.h"
#include "ppref/query/classify.h"
#include "ppref/query/parser.h"
#include "ppref/query/ucq.h"
#include "ppd/fuzz_world.h"

namespace ppref::ppd {
namespace {

using fuzz::MakeWorld;
using fuzz::RandomItemwiseQuery;

TEST(FuzzTest, ItemwiseEvaluatorMatchesEnumerationOnRandomWorlds) {
  Rng rng(987654321);
  unsigned nontrivial = 0;
  for (int trial = 0; trial < 150; ++trial) {
    fuzz::FuzzWorld world = MakeWorld(rng);
    const std::string text = RandomItemwiseQuery(world, rng);
    const auto q = query::ParseQuery(text, world.ppd.schema());
    ASSERT_TRUE(query::IsItemwise(q)) << text;
    const double exact = EvaluateBoolean(world.ppd, q);
    const double brute = EvaluateBooleanByEnumeration(world.ppd, q);
    ASSERT_NEAR(exact, brute, 1e-9) << "trial " << trial << ": " << text;
    if (exact > 1e-9 && exact < 1 - 1e-9) ++nontrivial;
  }
  // The workload must actually exercise uncertainty, not just 0/1 cases.
  EXPECT_GT(nontrivial, 40u);
}

TEST(FuzzTest, UnionEvaluatorMatchesEnumerationOnRandomWorlds) {
  Rng rng(123456789);
  for (int trial = 0; trial < 60; ++trial) {
    fuzz::FuzzWorld world = MakeWorld(rng);
    const std::string text = RandomItemwiseQuery(world, rng) + " UNION " +
                             RandomItemwiseQuery(world, rng);
    const auto ucq = query::ParseUnionQuery(text, world.ppd.schema());
    const double exact = EvaluateBooleanUnion(world.ppd, ucq);
    const double brute = EvaluateBooleanUnionByEnumeration(world.ppd, ucq);
    ASSERT_NEAR(exact, brute, 1e-9) << "trial " << trial << ": " << text;
  }
}

TEST(FuzzTest, NonBooleanAnswersMatchEnumerationOnRandomWorlds) {
  Rng rng(55555);
  for (int trial = 0; trial < 40; ++trial) {
    fuzz::FuzzWorld world = MakeWorld(rng);
    const auto q = query::ParseQuery("Q(x) :- P(s; x; y), A(y, 't0')",
                                     world.ppd.schema());
    const auto exact = EvaluateQuery(world.ppd, q);
    const auto brute = EvaluateQueryByEnumeration(world.ppd, q);
    ASSERT_EQ(exact.size(), brute.size()) << "trial " << trial;
    for (const Answer& answer : exact) {
      const auto it = std::find_if(
          brute.begin(), brute.end(),
          [&](const Answer& b) { return b.tuple == answer.tuple; });
      ASSERT_NE(it, brute.end());
      ASSERT_NEAR(answer.confidence, it->confidence, 1e-9)
          << "trial " << trial << " answer " << db::ToString(answer.tuple);
    }
  }
}

}  // namespace
}  // namespace ppref::ppd
