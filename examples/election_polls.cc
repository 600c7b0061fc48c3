/// \file election_polls.cc
/// \brief The paper's running example end to end: the Figure 1/2 election
/// MAL-PPD, the queries Q1–Q4 of Example 3.6, their classification
/// (Example 4.3), the §4.4 reduction on Ann's session (Example 4.9), and
/// exact evaluation cross-checked against possible-world enumeration.
///
/// Run: ./build/examples/election_polls

#include <cstdio>

#include "ppref/ppd/evaluator.h"
#include "ppref/ppd/monte_carlo_evaluator.h"
#include "ppref/ppd/possible_worlds.h"
#include "ppref/ppd/reduction.h"
#include "ppref/query/classify.h"
#include "ppref/query/parser.h"

namespace {

constexpr const char* kQueries[] = {
    // Q1: a BS voter prefers a male Democrat to a female Democrat.
    "Q() :- Polls(v, _; l; r), Voters(v, 'BS', _, _), "
    "Candidates(l, 'D', 'M', _), Candidates(r, 'D', 'F', _)",
    // Q2: a voter prefers a male candidate to a same-party female candidate.
    "Q() :- Polls(_, _; l; r), Candidates(l, p, 'M', _), "
    "Candidates(r, p, 'F', _)",
    // Q3: a voter prefers a female candidate to both Trump and Sanders.
    "Q() :- Polls(v, d; l; 'Trump'), Polls(v, d; l; 'Sanders'), "
    "Candidates(l, _, 'F', _)",
    // Q4: a voter prefers an own-gender candidate to an own-education one.
    "Q() :- Polls(v, _; l; r), Voters(v, _, s, _), Voters(v, e, _, _), "
    "Candidates(l, _, s, _), Candidates(r, _, _, e)",
};

}  // namespace

int main() {
  using namespace ppref;
  const ppd::RimPpd ppd = ppd::ElectionPpd();

  std::printf("=== The MAL-PPD of Figure 2 ===\n");
  for (const auto& [session, model] : ppd.PInstance("Polls").sessions()) {
    std::printf("  session %-18s -> %s\n", db::ToString(session).c_str(),
                model.ToString().c_str());
  }

  std::printf("\n=== Queries Q1-Q4 (Example 3.6) ===\n");
  for (int i = 0; i < 4; ++i) {
    const auto q = query::ParseQuery(kQueries[i], ppd.schema());
    const auto complexity = query::Classify(q);
    std::printf("\nQ%d: %s\n", i + 1, q.ToString().c_str());
    std::printf("  sessionwise: %s  itemwise: %s  complexity: %s\n",
                query::IsSessionwise(q) ? "yes" : "no",
                query::IsItemwise(q) ? "yes" : "no",
                query::ToString(complexity).c_str());
    const double brute = ppd::EvaluateBooleanByEnumeration(ppd, q);
    if (query::IsItemwise(q)) {
      const double exact = ppd::EvaluateBoolean(ppd, q);
      std::printf("  conf (TopProb reduction)   = %.9f\n", exact);
      std::printf("  conf (world enumeration)   = %.9f   |diff| = %.2e\n",
                  brute, std::abs(exact - brute));
    } else {
      infer::McOptions options;
      options.samples = 50000;
      options.seed = 42;
      const auto mc = ppd::EstimateBoolean(ppd, q, options);
      std::printf("  conf (world enumeration)   = %.9f\n", brute);
      std::printf("  conf (Monte Carlo, 50k)    = %.9f +- %.5f\n", mc.estimate,
                  mc.std_error);
    }
  }

  std::printf("\n=== The Section 4.4 reduction on Q3 (Example 4.9) ===\n");
  const auto q3 = query::ParseQuery(kQueries[2], ppd.schema());
  for (const auto& reduction : ppd::ReduceItemwise(ppd, q3)) {
    std::printf("session %s:\n", db::ToString(reduction.session).c_str());
    if (!reduction.satisfiable) {
      std::printf("  o-atoms unsatisfiable -> Pr = 0\n");
      continue;
    }
    for (unsigned node = 0; node < reduction.pattern.NodeCount(); ++node) {
      std::printf("  node %u (term %s): lambda items {", node,
                  reduction.node_terms[node].c_str());
      bool first = true;
      for (rim::ItemId id :
           reduction.labeling.ItemsWith(reduction.pattern.NodeLabel(node))) {
        std::printf("%s%s", first ? "" : ", ",
                    reduction.model->ItemOf(id).ToString().c_str());
        first = false;
      }
      std::printf("}\n");
    }
    std::printf("  pattern: %s\n", reduction.pattern.ToString().c_str());
    std::printf("  Pr(session matches) = %.9f\n", ppd::SessionProb(reduction));
  }

  std::printf("\n=== Non-Boolean query: whom does Ann rank above Trump? ===\n");
  const auto ranked = query::ParseQuery(
      "Q(l) :- Polls('Ann', 'Oct-5'; l; 'Trump')", ppd.schema());
  for (const auto& answer : ppd::EvaluateQuery(ppd, ranked)) {
    std::printf("  %-12s confidence %.6f\n",
                db::ToString(answer.tuple).c_str(), answer.confidence);
  }
  return 0;
}
