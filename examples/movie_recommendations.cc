/// \file movie_recommendations.cc
/// \brief Diversity-aware recommendation queries over a probabilistic
/// ranking of movies — the §1/§5.5 motivation ("the probability that a
/// Hitchcock movie is ranked high, and every comedy beats every horror").
///
/// A streaming service models a user's taste as a Mallows distribution over
/// a catalog; genre labels let us ask about *groups* of movies, which
/// item-level inference (pairwise marginals) cannot express.
///
/// Run: ./build/examples/movie_recommendations

#include <cstdio>

#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/monte_carlo.h"
#include "ppref/infer/top_prob.h"
#include "ppref/infer/top_prob_minmax.h"
#include "ppref/rim/mallows.h"

int main() {
  using namespace ppref;

  // The catalog, in the service's editorial order (the Mallows reference).
  const char* catalog[] = {
      "Vertigo",       // 0: thriller, classic
      "Airplane!",     // 1: comedy, classic
      "Psycho",        // 2: thriller, horror, classic
      "The Thing",     // 3: horror
      "Superbad",      // 4: comedy
      "Get Out",       // 5: horror, thriller
      "Paddington 2",  // 6: comedy, family
      "Coco",          // 7: family
  };
  const unsigned m = 8;
  enum : infer::LabelId { kThriller, kComedy, kHorror, kClassic, kFamily };
  infer::ItemLabeling labeling(m);
  labeling.AddLabel(0, kThriller);
  labeling.AddLabel(0, kClassic);
  labeling.AddLabel(1, kComedy);
  labeling.AddLabel(1, kClassic);
  labeling.AddLabel(2, kThriller);
  labeling.AddLabel(2, kHorror);
  labeling.AddLabel(2, kClassic);
  labeling.AddLabel(3, kHorror);
  labeling.AddLabel(4, kComedy);
  labeling.AddLabel(5, kHorror);
  labeling.AddLabel(5, kThriller);
  labeling.AddLabel(6, kComedy);
  labeling.AddLabel(6, kFamily);
  labeling.AddLabel(7, kFamily);

  std::printf("User taste model: Mallows over %u movies; queries below are\n"
              "exact (TopProb / TopProbMinMax), cross-checked by sampling.\n\n",
              m);

  std::printf("%-6s %-22s %-22s %-22s\n", "phi", "Pr(comedy>horror chain)",
              "Pr(family in top 3)", "Pr(all comedies above all horrors)");
  for (double phi : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const rim::MallowsModel mallows(rim::Ranking::Identity(m), phi);
    const infer::LabeledRimModel model(mallows.rim(), labeling);

    // Pattern: some comedy above some horror above some classic.
    infer::LabelPattern pattern;
    const unsigned c = pattern.AddNode(kComedy);
    const unsigned h = pattern.AddNode(kHorror);
    const unsigned k = pattern.AddNode(kClassic);
    pattern.AddEdge(c, h);
    pattern.AddEdge(h, k);
    const double chain = infer::PatternProb(model, pattern);

    // Min/max events over tracked labels {comedy, horror, family}.
    const std::vector<infer::LabelId> tracked = {kComedy, kHorror, kFamily};
    const double family_top3 =
        infer::MinMaxProb(model, tracked, infer::TopK(2, 3));
    const double diversity =
        infer::MinMaxProb(model, tracked, infer::AllBefore(0, 1));

    std::printf("%-6.1f %-22.6f %-22.6f %-22.6f\n", phi, chain, family_top3,
                diversity);
  }

  // Joint pattern + condition: a classic thriller leads the ranking region
  // while every family movie stays in the top half — a "safe homepage" mix.
  std::printf("\nJoint query at phi = 0.5:\n");
  const rim::MallowsModel mallows(rim::Ranking::Identity(m), 0.5);
  const infer::LabeledRimModel model(mallows.rim(), labeling);
  infer::LabelPattern pattern;
  const unsigned thriller = pattern.AddNode(kThriller);
  const unsigned comedy = pattern.AddNode(kComedy);
  pattern.AddEdge(thriller, comedy);
  const std::vector<infer::LabelId> tracked = {kFamily};
  const auto condition = [](const infer::MinMaxValues& v) {
    return v.max_position[0].has_value() && *v.max_position[0] <= 5;
  };
  const double joint =
      infer::PatternMinMaxProb(model, pattern, tracked, condition);
  infer::McOptions options;
  options.samples = 200000;
  options.seed = 7;
  const auto mc = infer::PatternMinMaxProbMonteCarlo(model, pattern, tracked,
                                                     condition, options);
  std::printf("  Pr(thriller above a comedy AND every family movie in "
              "top 6)\n    exact      = %.6f\n    sampled    = %.6f +- %.5f\n",
              joint, mc.estimate, mc.std_error);
  (void)catalog;
  return 0;
}
