#include "ppref/infer/uniform_extensions.h"

#include <gtest/gtest.h>

#include <map>

#include "ppref/common/combinatorics.h"

namespace ppref::infer {
namespace {

PartialOrder Chain(unsigned n, unsigned chained) {
  PartialOrder order(n);
  for (unsigned i = 0; i + 1 < chained; ++i) order.Add(i, i + 1);
  order.Close();
  return order;
}

TEST(UniformExtensionsTest, ExtensionCountMatchesCounter) {
  const PartialOrder order = Chain(6, 3);
  const UniformExtensions dist(order);
  EXPECT_EQ(dist.ExtensionCount(), CountLinearExtensions(order));
}

TEST(UniformExtensionsTest, EmptyOrderIsUniformOverPermutations) {
  const UniformExtensions dist(PartialOrder(4));
  EXPECT_EQ(dist.ExtensionCount(), 24u);
  // Every pair is free: marginal 1/2.
  EXPECT_NEAR(dist.PairwiseMarginal(0, 3), 0.5, 1e-12);
}

TEST(UniformExtensionsTest, ForcedPairsHaveDegenerateMarginals) {
  const UniformExtensions dist(Chain(4, 3));
  EXPECT_DOUBLE_EQ(dist.PairwiseMarginal(0, 2), 1.0);  // forced transitively
  EXPECT_DOUBLE_EQ(dist.PairwiseMarginal(2, 0), 0.0);
}

TEST(UniformExtensionsTest, PairwiseMarginalMatchesEnumeration) {
  Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    const unsigned n = 4 + static_cast<unsigned>(rng.NextIndex(2));
    PartialOrder order(n);
    for (unsigned a = 0; a < n; ++a) {
      for (unsigned b = a + 1; b < n; ++b) {
        if (rng.NextUnit() < 0.3) order.Add(a, b);
      }
    }
    order.Close();
    const UniformExtensions dist(order);
    // Enumerate and count pairwise agreements.
    std::vector<std::vector<unsigned>> before(n, std::vector<unsigned>(n, 0));
    unsigned total = 0;
    dist.ForEachExtension(1e6, [&](const rim::Ranking& tau) {
      ++total;
      for (rim::ItemId a = 0; a < n; ++a) {
        for (rim::ItemId b = 0; b < n; ++b) {
          if (a != b && tau.Prefers(a, b)) ++before[a][b];
        }
      }
    });
    ASSERT_EQ(total, dist.ExtensionCount());
    for (rim::ItemId a = 0; a < n; ++a) {
      for (rim::ItemId b = 0; b < n; ++b) {
        if (a == b) continue;
        ASSERT_NEAR(dist.PairwiseMarginal(a, b),
                    static_cast<double>(before[a][b]) / total, 1e-12)
            << "trial " << trial;
      }
    }
  }
}

TEST(UniformExtensionsTest, EnumerationVisitsOnlyValidExtensionsOnce) {
  const PartialOrder order = Chain(5, 4);
  const UniformExtensions dist(order);
  std::map<std::vector<rim::ItemId>, int> seen;
  dist.ForEachExtension(1e6, [&](const rim::Ranking& tau) {
    EXPECT_TRUE(order.IsLinearExtension(tau));
    EXPECT_EQ(++seen[tau.order()], 1);
  });
  EXPECT_EQ(seen.size(), dist.ExtensionCount());
}

TEST(UniformExtensionsTest, SamplesAreValidAndUniform) {
  // V-poset: 0 < 2, 1 < 2 over 4 items; 2*C(4,2)... compute: extensions of
  // {0<2, 1<2} over items {0,1,2,3}.
  PartialOrder order(4);
  order.Add(0, 2);
  order.Add(1, 2);
  order.Close();
  const UniformExtensions dist(order);
  const double expected = 1.0 / static_cast<double>(dist.ExtensionCount());
  Rng rng(73);
  std::map<std::vector<rim::ItemId>, int> counts;
  const int draws = 80000;
  for (int i = 0; i < draws; ++i) {
    const rim::Ranking tau = dist.Sample(rng);
    ASSERT_TRUE(order.IsLinearExtension(tau));
    ++counts[tau.order()];
  }
  EXPECT_EQ(counts.size(), dist.ExtensionCount());
  for (const auto& [ranking, count] : counts) {
    const double freq = static_cast<double>(count) / draws;
    const double sigma = std::sqrt(expected * (1 - expected) / draws);
    EXPECT_NEAR(freq, expected, 5 * sigma + 1e-3);
  }
}

TEST(UniformExtensionsTest, PatternProbExactMatchesSampled) {
  PartialOrder order(5);
  order.Add(0, 1);
  order.Add(2, 3);
  order.Close();
  const UniformExtensions dist(order);
  ItemLabeling labeling(5);
  labeling.AddLabel(1, 0);
  labeling.AddLabel(3, 0);
  labeling.AddLabel(4, 1);
  LabelPattern pattern;  // some label-0 item above the label-1 item
  pattern.AddNode(0);
  pattern.AddNode(1);
  pattern.AddEdge(0, 1);
  const double exact = dist.PatternProbExact(pattern, labeling);
  Rng rng(79);
  const auto sampled =
      dist.PatternProbSampled(pattern, labeling, 40000, rng);
  EXPECT_GT(exact, 0.0);
  EXPECT_LT(exact, 1.0);
  EXPECT_NEAR(sampled.estimate, exact, 5 * sampled.std_error + 1e-3);
}

TEST(UniformExtensionsTest, TotalOrderHasSingleSample) {
  const UniformExtensions dist(Chain(4, 4));
  EXPECT_EQ(dist.ExtensionCount(), 1u);
  Rng rng(83);
  EXPECT_EQ(dist.Sample(rng), rim::Ranking({0, 1, 2, 3}));
}

TEST(UniformExtensionsDeathTest, EnumerationCapEnforced) {
  const UniformExtensions dist(PartialOrder(8));  // 8! = 40320 extensions
  EXPECT_DEATH(dist.ForEachExtension(100, [](const rim::Ranking&) {}),
               "exceeds the cap");
}

}  // namespace
}  // namespace ppref::infer
