/// \file bench_e3_mc_convergence.cc
/// \brief Experiment E3 — exact inference vs Monte-Carlo approximation
/// (the approximate-answering direction of §6): sampling error shrinks as
/// 1/sqrt(N) while the exact DP's one-off cost is fixed.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "ppref/infer/monte_carlo.h"
#include "ppref/infer/top_prob.h"

int main() {
  using namespace ppref;
  using namespace ppref::bench;

  PrintHeader("E3", "Monte-Carlo convergence to the exact TopProb answer");
  const unsigned m = 20;
  const auto model = LabeledMallows(m, 0.8, SpreadLabeling(m, 2, 4));
  const auto pattern = ChainPattern(2);

  double exact = 0.0;
  const double exact_ms =
      TimeMs([&] { exact = infer::PatternProb(model, pattern); });
  std::printf("m = %u, 2-node chain pattern; exact Pr = %.6f "
              "(computed once in %.2f ms)\n\n",
              m, exact, exact_ms);
  std::printf("%10s %14s %12s %14s %12s\n", "samples", "estimate", "|error|",
              "std error", "time [ms]");

  for (unsigned samples : {100u, 1000u, 10000u, 100000u, 1000000u}) {
    infer::McOptions options;
    options.samples = samples;
    options.threads = 1;
    options.seed = 7;
    hard::BernoulliEstimate estimate;
    const double elapsed = TimeMs([&] {
      estimate = infer::PatternProbMonteCarlo(model, pattern, options);
    });
    std::printf("%10u %14.6f %12.6f %14.6f %12.2f\n", samples,
                estimate.estimate, std::abs(estimate.estimate - exact),
                estimate.std_error, elapsed);
  }
  std::printf("\nError decays ~1/sqrt(N): each 100x in samples buys ~10x\n"
              "accuracy, while the exact DP answers to machine precision.\n");
  return 0;
}
