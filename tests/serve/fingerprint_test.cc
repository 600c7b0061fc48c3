/// \file fingerprint_test.cc
/// \brief Fingerprint stability: equal mathematical objects hash equal no
/// matter how they were built, and every single-parameter perturbation
/// changes the hash.

#include "ppref/serve/fingerprint.h"

#include <gtest/gtest.h>

#include <vector>

#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/labeling.h"
#include "ppref/infer/pattern.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/mallows.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/rim_model.h"

namespace ppref::serve {
namespace {

rim::RimModel SmallMallows(unsigned m, double phi) {
  return rim::MallowsModel(rim::Ranking::Identity(m), phi).rim();
}

TEST(ServeFingerprintTest, ModelStableAcrossConstructionPaths) {
  // Same (σ, Π) through the Mallows factory and through an explicit row
  // copy must fingerprint identically.
  const rim::RimModel direct = SmallMallows(5, 0.5);
  std::vector<std::vector<double>> rows;
  for (unsigned t = 0; t < direct.size(); ++t) {
    rows.push_back(direct.insertion().Row(t));
  }
  const rim::RimModel rebuilt(rim::Ranking::Identity(5),
                              rim::InsertionFunction(std::move(rows)));
  EXPECT_EQ(FingerprintModel(direct), FingerprintModel(rebuilt));
}

TEST(ServeFingerprintTest, ModelFingerprintIsPinned) {
  // The model fingerprint keys persisted store records; a change to it (or
  // to common/hash.h) must bump store::kFormatVersion.
  EXPECT_EQ(FingerprintModel(SmallMallows(5, 0.5)), 0xfc77cc5d28eaef8cull);
}

TEST(ServeFingerprintTest, ModelPerturbationsChangeFingerprint) {
  const rim::RimModel base = SmallMallows(5, 0.5);
  const std::uint64_t fp = FingerprintModel(base);
  // Dispersion perturbation.
  EXPECT_NE(fp, FingerprintModel(SmallMallows(5, 0.50000001)));
  // Size perturbation.
  EXPECT_NE(fp, FingerprintModel(SmallMallows(6, 0.5)));
  // Reference-order perturbation (same insertion table).
  const rim::RimModel swapped(rim::Ranking({1, 0, 2, 3, 4}),
                              rim::InsertionFunction::Mallows(5, 0.5));
  EXPECT_NE(fp, FingerprintModel(swapped));
  // Single insertion-row perturbation.
  std::vector<std::vector<double>> rows;
  for (unsigned t = 0; t < base.size(); ++t) rows.push_back(base.insertion().Row(t));
  rows[3] = {0.25, 0.25, 0.25, 0.25};
  const rim::RimModel perturbed(rim::Ranking::Identity(5),
                                rim::InsertionFunction(std::move(rows)));
  EXPECT_NE(fp, FingerprintModel(perturbed));
}

TEST(ServeFingerprintTest, LabelingOrderInsensitiveContentSensitive) {
  infer::ItemLabeling a(4);
  a.AddLabel(0, 7);
  a.AddLabel(0, 3);
  a.AddLabel(2, 5);
  infer::ItemLabeling b(4);
  b.AddLabel(2, 5);
  b.AddLabel(0, 3);
  b.AddLabel(0, 7);  // same sets, different AddLabel order
  EXPECT_EQ(FingerprintLabeling(a), FingerprintLabeling(b));

  infer::ItemLabeling extra(4);
  extra.AddLabel(0, 7);
  extra.AddLabel(0, 3);
  extra.AddLabel(2, 5);
  extra.AddLabel(3, 5);  // one extra label
  EXPECT_NE(FingerprintLabeling(a), FingerprintLabeling(extra));

  // The same label on a different item is a different labeling.
  infer::ItemLabeling moved(4);
  moved.AddLabel(1, 7);
  moved.AddLabel(0, 3);
  moved.AddLabel(2, 5);
  EXPECT_NE(FingerprintLabeling(a), FingerprintLabeling(moved));
}

TEST(ServeFingerprintTest, PatternStableAcrossConstructionOrder) {
  // g: 3 -> 5, 3 -> 9 built in two node/edge orders.
  infer::LabelPattern a;
  const unsigned a3 = a.AddNode(3);
  const unsigned a5 = a.AddNode(5);
  const unsigned a9 = a.AddNode(9);
  a.AddEdge(a3, a5);
  a.AddEdge(a3, a9);

  infer::LabelPattern b;
  const unsigned b9 = b.AddNode(9);
  const unsigned b3 = b.AddNode(3);
  const unsigned b5 = b.AddNode(5);
  b.AddEdge(b3, b9);
  b.AddEdge(b3, b5);
  EXPECT_EQ(FingerprintPattern(a), FingerprintPattern(b));
}

TEST(ServeFingerprintTest, PatternPerturbationsChangeFingerprint) {
  infer::LabelPattern base;
  const unsigned n3 = base.AddNode(3);
  const unsigned n5 = base.AddNode(5);
  base.AddNode(9);
  base.AddEdge(n3, n5);
  const std::uint64_t fp = FingerprintPattern(base);

  // Extra edge.
  infer::LabelPattern more = base;
  more.AddEdge(n5, 2);
  EXPECT_NE(fp, FingerprintPattern(more));

  // Reversed edge direction.
  infer::LabelPattern reversed;
  const unsigned r3 = reversed.AddNode(3);
  const unsigned r5 = reversed.AddNode(5);
  reversed.AddNode(9);
  reversed.AddEdge(r5, r3);
  EXPECT_NE(fp, FingerprintPattern(reversed));

  // Different node label.
  infer::LabelPattern relabeled;
  const unsigned l3 = relabeled.AddNode(3);
  const unsigned l5 = relabeled.AddNode(5);
  relabeled.AddNode(10);
  relabeled.AddEdge(l3, l5);
  EXPECT_NE(fp, FingerprintPattern(relabeled));

  // Edge-free pattern with the same nodes.
  infer::LabelPattern no_edges;
  no_edges.AddNode(3);
  no_edges.AddNode(5);
  no_edges.AddNode(9);
  EXPECT_NE(fp, FingerprintPattern(no_edges));
}

TEST(ServeFingerprintTest, TrackedOrderIsSemantic) {
  // Tracked order decides which (α, β) slot a condition reads, so it is
  // part of the key — unlike pattern construction order.
  EXPECT_NE(FingerprintTracked({1, 2}), FingerprintTracked({2, 1}));
  EXPECT_EQ(FingerprintTracked({1, 2}), FingerprintTracked({1, 2}));
  EXPECT_NE(FingerprintTracked({}), FingerprintTracked({0}));
}

TEST(ServeFingerprintTest, PlanKeySeparatesComponents) {
  const rim::RimModel rim = SmallMallows(4, 0.7);
  infer::ItemLabeling labeling(4);
  labeling.AddLabel(0, 1);
  labeling.AddLabel(1, 2);
  const infer::LabeledRimModel model(rim, labeling);
  infer::LabelPattern pattern;
  pattern.AddNode(1);
  pattern.AddNode(2);
  pattern.AddEdge(0, 1);

  const std::uint64_t key = PlanKey(model, pattern, {});
  EXPECT_EQ(key, PlanKey(model, pattern, {}));
  EXPECT_NE(key, PlanKey(model, pattern, {1}));
  infer::LabelPattern other = pattern;
  other.AddNode(3);
  EXPECT_NE(key, PlanKey(model, other, {}));
  infer::ItemLabeling perturbed = labeling;
  perturbed.AddLabel(3, 2);
  EXPECT_NE(key, PlanKey(infer::LabeledRimModel(rim, perturbed), pattern, {}));
}

}  // namespace
}  // namespace ppref::serve
