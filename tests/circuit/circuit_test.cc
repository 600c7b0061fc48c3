/// \file circuit_test.cc
/// \brief Tests for the parameterized arithmetic-circuit subsystem: the
/// bit-identity contract against the DP (TopProb, TopProbMinMax, and
/// conjunction instances), fuzzed parameter re-binding against fresh DP
/// runs, and the builder/evaluator substrate itself.

#include "ppref/circuit/circuit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ppref/circuit/compile.h"
#include "ppref/common/random.h"
#include "ppref/infer/conjunction.h"
#include "ppref/infer/internal/dp_engine.h"
#include "ppref/infer/internal/dp_plan.h"
#include "ppref/infer/top_prob.h"
#include "ppref/infer/top_prob_minmax.h"
#include "ppref/rim/mallows.h"
#include "ppref/serve/server.h"
#include "test_util.h"

namespace ppref::circuit {
namespace {

using infer::LabeledRimModel;
using infer::LabelId;
using infer::LabelPattern;
using infer::Matching;
using infer::MinMaxCondition;
using infer::MinMaxValues;
using infer::internal::DpPlan;
using infer::internal::EnumerateCandidates;

TEST(CircuitBuilderTest, HandBuiltCircuitEvaluates) {
  // (0.5 + Π(1,0) * Π(2,2)) and leaf/const dedup.
  CircuitBuilder builder(3);
  const NodeId half = builder.Constant(0.5);
  const NodeId leaf_a = builder.Leaf(1, 0);
  const NodeId leaf_b = builder.Leaf(2, 2);
  EXPECT_EQ(builder.Leaf(1, 0), leaf_a);
  EXPECT_EQ(builder.Constant(0.5), half);
  EXPECT_EQ(builder.Constant(0.0), builder.Zero());
  EXPECT_EQ(builder.Constant(1.0), builder.One());
  builder.SetRoot(builder.MulAdd(half, leaf_a, leaf_b));
  const Circuit circuit = std::move(builder).Build();
  EXPECT_EQ(circuit.items(), 3u);
  EXPECT_GT(circuit.MemoryBytes(), 0u);

  const auto pi = rim::InsertionFunction::Mallows(3, 0.5);
  EvalScratch scratch;
  EXPECT_EQ(circuit.Evaluate(pi, scratch),
            0.5 + pi.Prob(1, 0) * pi.Prob(2, 2));
}

TEST(CircuitBuilderTest, PrefixDiffMatchesSequentialAccumulation) {
  const unsigned m = 6;
  CircuitBuilder builder(m);
  builder.SetRoot(builder.PrefixDiff(/*t=*/5, /*hi_index=*/6, /*lo_index=*/2));
  const Circuit circuit = std::move(builder).Build();
  Rng rng(11);
  const auto pi = rim::InsertionFunction::Random(m, rng);
  // The node must reproduce the DP's left-to-right accumulation exactly.
  std::vector<double> prefix(7, 0.0);
  for (unsigned x = 0; x <= 5; ++x) prefix[x + 1] = prefix[x] + pi.Prob(5, x);
  EvalScratch scratch;
  EXPECT_EQ(circuit.Evaluate(pi, scratch), prefix[6] - prefix[2]);
}

TEST(CircuitBitIdentityTest, TopProbMatchesDpPerGamma) {
  // Per-candidate circuits: evaluation at the compile-time Π must equal
  // DpPlan::TopProb bit for bit (ASSERT_EQ, never NEAR), across random
  // non-Mallows models and DAG patterns.
  Rng rng(2201);
  for (int trial = 0; trial < 25; ++trial) {
    const unsigned m = 3 + static_cast<unsigned>(rng.NextIndex(4));
    const unsigned k = 1 + static_cast<unsigned>(rng.NextIndex(3));
    const auto model = ppref::testing::RandomLabeledRim(m, k, 0.6, rng);
    const auto pattern = ppref::testing::RandomDagPattern(k, 0.5, rng);
    const DpPlan plan(model, pattern, /*tracked=*/{});
    DpPlan::Scratch scratch;
    EvalScratch eval;
    for (const Matching& gamma : EnumerateCandidates(model, pattern)) {
      const Circuit circuit = CompileTopProb(plan, gamma);
      ASSERT_EQ(circuit.Evaluate(model.model().insertion(), eval),
                plan.TopProb(gamma, nullptr, scratch))
          << "trial " << trial;
    }
  }
}

TEST(CircuitBitIdentityTest, PatternProbMatchesPlan) {
  Rng rng(2203);
  for (int trial = 0; trial < 25; ++trial) {
    const unsigned m = 3 + static_cast<unsigned>(rng.NextIndex(5));
    const unsigned k = 1 + static_cast<unsigned>(rng.NextIndex(3));
    const auto model = ppref::testing::RandomLabeledRim(m, k, 0.6, rng);
    const auto pattern = ppref::testing::RandomDagPattern(k, 0.5, rng);
    const DpPlan plan(model, pattern, /*tracked=*/{});
    const Circuit circuit = CompilePatternProb(plan);
    EvalScratch eval;
    ASSERT_EQ(circuit.Evaluate(model.model().insertion(), eval),
              infer::PatternProbWithPlan(plan, {}))
        << "trial " << trial;
  }
}

TEST(CircuitBitIdentityTest, EmptyPatternIsConstantOne) {
  Rng rng(2205);
  const auto model = ppref::testing::RandomLabeledRim(5, 2, 0.5, rng);
  const LabelPattern empty;
  const DpPlan plan(model, empty, /*tracked=*/{});
  const Circuit circuit = CompilePatternProb(plan);
  EvalScratch eval;
  EXPECT_EQ(circuit.Evaluate(model.model().insertion(), eval), 1.0);
}

TEST(CircuitBitIdentityTest, MinMaxMatchesPlan) {
  // TopProbMinMax circuits: the condition filters packed states at compile
  // time, so the emitted circuit must match the conditioned DP exactly.
  Rng rng(2207);
  const MinMaxCondition in_top_half = [](const MinMaxValues& values) {
    return values.min_position[0].has_value() && *values.min_position[0] <= 2;
  };
  for (int trial = 0; trial < 20; ++trial) {
    const unsigned m = 4 + static_cast<unsigned>(rng.NextIndex(3));
    const auto model = ppref::testing::RandomLabeledRim(m, 3, 0.5, rng);
    const auto pattern = ppref::testing::RandomDagPattern(2, 0.6, rng);
    const std::vector<LabelId> tracked = {2};
    const DpPlan plan(model, pattern, tracked);
    const Circuit circuit = CompilePatternMinMaxProb(plan, in_top_half);
    EvalScratch eval;
    ASSERT_EQ(circuit.Evaluate(model.model().insertion(), eval),
              infer::PatternMinMaxProbWithPlan(plan, in_top_half, {}))
        << "trial " << trial;
  }
}

TEST(CircuitBitIdentityTest, MinMaxEmptyPatternMatchesPlan) {
  Rng rng(2209);
  const MinMaxCondition seen_early = [](const MinMaxValues& values) {
    return values.max_position[0].has_value() && *values.max_position[0] <= 3;
  };
  const auto model = ppref::testing::RandomLabeledRim(6, 2, 0.6, rng);
  const LabelPattern empty;
  const std::vector<LabelId> tracked = {1};
  const DpPlan plan(model, empty, tracked);
  const Circuit circuit = CompilePatternMinMaxProb(plan, seen_early);
  EvalScratch eval;
  EXPECT_EQ(circuit.Evaluate(model.model().insertion(), eval),
            infer::PatternMinMaxProbWithPlan(plan, seen_early, {}));
}

TEST(CircuitBitIdentityTest, ConjunctionInstanceMatches) {
  // Conjunction queries reduce to PatternProb over the conjoined instance;
  // the circuit of the conjoined pattern must reproduce ConjunctionProb.
  Rng rng(2211);
  for (int trial = 0; trial < 10; ++trial) {
    const unsigned m = 4 + static_cast<unsigned>(rng.NextIndex(3));
    const rim::RimModel base(ppref::testing::RandomReference(m, rng),
                             rim::InsertionFunction::Random(m, rng));
    infer::PatternInstance a{ppref::testing::RandomDagPattern(2, 0.5, rng),
                             ppref::testing::RandomLabeling(m, 2, 0.6, rng)};
    infer::PatternInstance b{ppref::testing::RandomDagPattern(1, 0.0, rng),
                             ppref::testing::RandomLabeling(m, 1, 0.6, rng)};
    const infer::PatternInstance joint = infer::Conjoin(a, b);
    const LabeledRimModel joint_model(base, joint.labeling);
    const DpPlan plan(joint_model, joint.pattern, /*tracked=*/{});
    const Circuit circuit = CompilePatternProb(plan);
    EvalScratch eval;
    ASSERT_EQ(circuit.Evaluate(base.insertion(), eval),
              infer::ConjunctionProb(base, a, b))
        << "trial " << trial;
  }
}

TEST(CircuitRebindTest, FuzzPhiRebindMatchesFreshDp) {
  // The cached-circuit promise: compile once (at an arbitrary Π), then
  // re-bind to fuzzed parameters and compare against a fresh DP run on the
  // re-parameterized model. Tolerance-gated, but the DP's control flow is
  // Π-independent, so in practice the answers agree bit for bit.
  Rng rng(2213);
  int exact = 0, total = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const unsigned m = 4 + static_cast<unsigned>(rng.NextIndex(4));
    const unsigned k = 1 + static_cast<unsigned>(rng.NextIndex(3));
    const auto model = ppref::testing::RandomLabeledMallows(m, 0.5, k, 0.6, rng);
    const auto pattern = ppref::testing::RandomDagPattern(k, 0.5, rng);
    const DpPlan plan(model, pattern, /*tracked=*/{});
    const Circuit circuit = CompilePatternProb(plan);
    EvalScratch eval;
    for (int bind = 0; bind < 8; ++bind) {
      rim::InsertionFunction pi =
          bind % 2 == 0
              ? rim::InsertionFunction::Mallows(
                    m, 0.05 + 0.95 * rng.NextUnit())
              : rim::InsertionFunction::Random(m, rng);
      const double from_circuit = circuit.Evaluate(pi, eval);
      const LabeledRimModel rebound(
          rim::RimModel(model.model().reference(), std::move(pi)),
          model.labeling());
      const double from_dp = infer::PatternProb(rebound, pattern);
      ASSERT_NEAR(from_circuit, from_dp, 1e-12)
          << "trial " << trial << " bind " << bind;
      ++total;
      if (from_circuit == from_dp) ++exact;
    }
  }
  // The structural argument says every re-binding is exact; keep that
  // property visible (a regression to merely-close is worth investigating).
  EXPECT_EQ(exact, total);
}

TEST(CircuitRebindTest, GeneralizedMallowsRebind) {
  Rng rng(2217);
  const unsigned m = 6;
  const auto model = ppref::testing::RandomLabeledMallows(m, 0.7, 2, 0.6, rng);
  const auto pattern = ppref::testing::RandomDagPattern(2, 0.5, rng);
  const DpPlan plan(model, pattern, /*tracked=*/{});
  const Circuit circuit = CompilePatternProb(plan);
  EvalScratch eval;
  std::vector<double> phis(m);
  for (double& phi : phis) phi = 0.1 + 0.9 * rng.NextUnit();
  rim::InsertionFunction pi = rim::InsertionFunction::GeneralizedMallows(phis);
  const double from_circuit = circuit.Evaluate(pi, eval);
  const LabeledRimModel rebound(
      rim::RimModel(model.model().reference(), std::move(pi)),
      model.labeling());
  EXPECT_EQ(from_circuit, infer::PatternProb(rebound, pattern));
}

TEST(CircuitServeTest, SweepMatchesPerPointDp) {
  // The serving fast path: one compile, N re-bindings — each answer must
  // equal a fresh DP run on the re-parameterized model, bit for bit.
  Rng rng(3301);
  const unsigned m = 6;
  const auto model = ppref::testing::RandomLabeledMallows(m, 0.5, 2, 0.6, rng);
  const auto pattern = ppref::testing::RandomDagPattern(2, 0.5, rng);
  serve::Server server;
  std::vector<std::vector<double>> params;
  for (int i = 0; i < 20; ++i) params.push_back({0.05 + 0.047 * i});
  const auto sweep = server.PatternProbSweep(model, pattern, params);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep->size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const LabeledRimModel point_model(
        rim::RimModel(model.model().reference(),
                      rim::InsertionFunction::Mallows(m, params[i][0])),
        model.labeling());
    ASSERT_EQ((*sweep)[i], infer::PatternProb(point_model, pattern))
        << "point " << i;
  }
  const serve::ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.sweep_requests, 1u);
  EXPECT_EQ(stats.sweep_points, params.size());
  EXPECT_EQ(stats.circuit_compiles, 1u);
  EXPECT_EQ(stats.circuit_cache.misses, 1u);
}

TEST(CircuitServeTest, SweepSharesCircuitAcrossPiChanges) {
  // The circuit key excludes Π: sweeping two models that differ only in
  // their insertion probabilities compiles exactly one circuit.
  Rng rng(3303);
  const unsigned m = 5;
  const auto model_a = ppref::testing::RandomLabeledMallows(m, 0.3, 2, 0.6, rng);
  const LabeledRimModel model_b(
      rim::RimModel(model_a.model().reference(),
                    rim::InsertionFunction::Random(m, rng)),
      model_a.labeling());
  const auto pattern = ppref::testing::RandomDagPattern(2, 0.5, rng);
  serve::Server server;
  const std::vector<std::vector<double>> params = {{0.4}, {0.9}};
  ASSERT_TRUE(server.PatternProbSweep(model_a, pattern, params).ok());
  ASSERT_TRUE(server.PatternProbSweep(model_b, pattern, params).ok());
  const serve::ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.circuit_compiles, 1u);
  EXPECT_EQ(stats.circuit_cache.hits, 1u);
  EXPECT_EQ(stats.circuit_cache.misses, 1u);
  // And the plan cache was warmed through the circuit compile.
  EXPECT_EQ(stats.plan_cache.insertions, 1u);
}

TEST(CircuitServeTest, GeneralizedMallowsSweepMatchesDp) {
  Rng rng(3305);
  const unsigned m = 5;
  const auto model = ppref::testing::RandomLabeledMallows(m, 0.6, 2, 0.6, rng);
  const auto pattern = ppref::testing::RandomDagPattern(2, 0.4, rng);
  serve::Server server;
  std::vector<std::vector<double>> params;
  for (int i = 0; i < 5; ++i) {
    std::vector<double> phis(m);
    for (double& phi : phis) phi = 0.1 + 0.9 * rng.NextUnit();
    params.push_back(std::move(phis));
  }
  const auto sweep = server.PatternProbSweep(model, pattern, params);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const LabeledRimModel point_model(
        rim::RimModel(model.model().reference(),
                      rim::InsertionFunction::GeneralizedMallows(params[i])),
        model.labeling());
    ASSERT_EQ((*sweep)[i], infer::PatternProb(point_model, pattern))
        << "point " << i;
  }
}

TEST(CircuitServeTest, SweepValidatesParameters) {
  Rng rng(3307);
  const auto model = ppref::testing::RandomLabeledMallows(5, 0.5, 2, 0.6, rng);
  const auto pattern = ppref::testing::RandomDagPattern(2, 0.5, rng);
  serve::Server server;
  // Out-of-range dispersions never reach a constructor abort.
  for (const double bad : {0.0, -0.25, 1.5}) {
    const auto sweep = server.PatternProbSweep(model, pattern, {{bad}});
    ASSERT_FALSE(sweep.ok());
    EXPECT_EQ(sweep.status().code(), StatusCode::kInvalidArgument);
  }
  // A parameter vector of the wrong arity (neither 1 nor m).
  const auto arity = server.PatternProbSweep(model, pattern, {{0.5, 0.5}});
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.status().code(), StatusCode::kInvalidArgument);
  // The shared request validation still applies: a pattern label no item
  // carries is refused at the boundary.
  LabelPattern foreign;
  foreign.AddNode(/*label=*/99);
  const auto invalid = server.PatternProbSweep(model, foreign, {{0.5}});
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Snapshot().invalid, 5u);
  // An empty grid is a valid (trivial) sweep.
  const auto empty = server.PatternProbSweep(model, pattern, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(CircuitServeTest, CircuitCacheEvictsAtCapacity) {
  Rng rng(3309);
  const auto model = ppref::testing::RandomLabeledMallows(5, 0.5, 3, 0.7, rng);
  serve::ServerOptions options;
  options.circuit_cache_capacity = 1;
  // One shard, so the capacity of 1 is global: with 8 shards each shard
  // keeps one entry, and evictions would hinge on two keys sharing a shard.
  options.cache_shards = 1;
  serve::Server server(options);
  const auto pattern_a = ppref::testing::RandomDagPattern(2, 0.5, rng);
  const auto pattern_b = ppref::testing::RandomDagPattern(3, 0.5, rng);
  const std::vector<std::vector<double>> params = {{0.5}};
  ASSERT_TRUE(server.PatternProbSweep(model, pattern_a, params).ok());
  ASSERT_TRUE(server.PatternProbSweep(model, pattern_b, params).ok());
  ASSERT_TRUE(server.PatternProbSweep(model, pattern_a, params).ok());
  const serve::ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.circuit_compiles, 3u);
  EXPECT_EQ(stats.circuit_cache.misses, 3u);
  EXPECT_GE(stats.circuit_cache.evictions, 2u);
  // ClearCaches drops the circuit cache (and its counters) too.
  server.ClearCaches();
  EXPECT_EQ(server.Snapshot().circuit_cache.misses, 0u);
}

TEST(CircuitServeTest, SweepRespectsMaxPatternNodes) {
  Rng rng(3311);
  const auto model = ppref::testing::RandomLabeledMallows(6, 0.5, 3, 0.7, rng);
  const auto pattern = ppref::testing::RandomDagPattern(3, 0.5, rng);
  serve::ServerOptions options;
  options.max_pattern_nodes = 2;
  serve::Server server(options);
  const auto sweep = server.PatternProbSweep(model, pattern, {{0.5}});
  ASSERT_FALSE(sweep.ok());
  EXPECT_EQ(sweep.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ppref::circuit
