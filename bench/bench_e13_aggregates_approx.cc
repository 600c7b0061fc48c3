/// \file bench_e13_aggregates_approx.cc
/// \brief Experiment E13 — the rank-aggregation operations (§1 motivation)
/// and the (ε, δ)-approximation (§6 direction): exact aggregates vs
/// sampling, and an empirical check of the Hoeffding guarantee.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "ppref/common/random.h"
#include "ppref/infer/aggregates.h"
#include "ppref/ppd/evaluator.h"
#include "ppref/ppd/monte_carlo_evaluator.h"
#include "ppref/query/parser.h"
#include "ppref/rim/kendall.h"
#include "ppref/rim/sampler.h"

int main() {
  using namespace ppref;
  using namespace ppref::bench;

  PrintHeader("E13", "rank aggregation + (eps, delta)-approximation");

  std::printf("Part 1: exact E[Kendall distance to reference] vs sampling "
              "(Mallows).\n");
  std::printf("%4s %8s %14s %14s %12s %12s\n", "m", "phi", "exact E[d]",
              "sampled E[d]", "exact [ms]", "10k samples [ms]");
  for (unsigned m : {10u, 20u, 40u}) {
    for (double phi : {0.3, 0.8}) {
      const rim::MallowsModel mallows(rim::Ranking::Identity(m), phi);
      double exact = 0.0;
      const double exact_ms = TimeMs([&] {
        exact = infer::ExpectedKendallTau(mallows.rim(),
                                          rim::Ranking::Identity(m));
      });
      Rng rng(5);
      double sampled = 0.0;
      const double sample_ms = TimeMs([&] {
        for (int s = 0; s < 10000; ++s) {
          sampled += static_cast<double>(rim::KendallTau(
              rim::SampleRanking(mallows.rim(), rng),
              rim::Ranking::Identity(m)));
        }
        sampled /= 10000;
      });
      std::printf("%4u %8.1f %14.4f %14.4f %12.2f %12.1f\n", m, phi, exact,
                  sampled, exact_ms, sample_ms);
    }
  }

  std::printf("\nPart 2: modal & consensus rankings recover the Mallows "
              "reference.\n");
  {
    Rng rng(6);
    unsigned modal_hits = 0, consensus_hits = 0;
    const int trials = 50;
    for (int t = 0; t < trials; ++t) {
      std::vector<rim::ItemId> order(12);
      for (unsigned i = 0; i < 12; ++i) order[i] = i;
      for (unsigned i = 12; i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextIndex(i)]);
      }
      const rim::Ranking reference(order);
      const rim::MallowsModel mallows(reference, 0.6);
      if (infer::ModalRanking(mallows.rim()) == reference) ++modal_hits;
      if (infer::ConsensusByExpectedPosition(mallows.rim()) == reference) {
        ++consensus_hits;
      }
    }
    std::printf("  modal == reference:     %u/%d\n", modal_hits, trials);
    std::printf("  consensus == reference: %u/%d\n", consensus_hits, trials);
  }

  std::printf("\nPart 3: Hoeffding (eps = 0.05, delta = 0.1) on paper Q1 — "
              "empirical\nviolation rate over repeated runs must stay near "
              "or below delta.\n");
  {
    const ppd::RimPpd ppd = ppd::ElectionPpd();
    const auto q1 = query::ParseQuery(
        "Q() :- Polls(v, _; l; r), Voters(v, 'BS', _, _), "
        "Candidates(l, 'D', 'M', _), Candidates(r, 'D', 'F', _)",
        ppd.schema());
    const double exact = ppd::EvaluateBoolean(ppd, q1);
    // Seeds 0..99: one independent seeded run each.
    const int runs = 100;
    int violations = 0;
    double total_ms = 0.0;
    for (int r = 0; r < runs; ++r) {
      ppd::ApproxResult result;
      total_ms += TimeMs(
          [&] { result = ppd::ApproximateBoolean(ppd, q1, 0.05, 0.1, r); });
      if (std::abs(result.estimate - exact) > 0.05) ++violations;
    }
    std::printf("  exact conf = %.6f; samples/run = %u\n", exact,
                ppd::HoeffdingSamples(0.05, 0.1));
    std::printf("  violations: %d/%d (guarantee allows <= %d on average); "
                "%.1f ms/run\n",
                violations, runs, static_cast<int>(0.1 * runs),
                total_ms / runs);
  }
  return 0;
}
