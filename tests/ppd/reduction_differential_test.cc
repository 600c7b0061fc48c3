/// Differential test of the §4.4 reduction: `ReduceItemwise` must produce,
/// field by field, what the straightforward per-session loop of
/// reduction_reference.h produces — the same sessions in the same order,
/// the same flags, and for every satisfiable, non-reflexive session the same
/// pattern, node terms and per-item labels in the same insertion order (the
/// labeling feeds the serve fingerprint, so order is part of the answer).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ppd/fuzz_world.h"
#include "ppd/reduction_reference.h"
#include "ppref/common/check.h"
#include "ppref/common/random.h"
#include "ppref/ppd/reduction.h"
#include "ppref/query/parser.h"
#include "query/paper_queries.h"

namespace ppref::ppd {
namespace {

void ExpectSameReductions(const RimPpd& ppd,
                          const query::ConjunctiveQuery& query) {
  SCOPED_TRACE(query.ToString());
  const std::vector<SessionReduction> want =
      reference::ReduceItemwise(ppd, query);
  const std::vector<SessionReduction> got = ReduceItemwise(ppd, query);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < want.size(); ++s) {
    SCOPED_TRACE("session " + db::ToString(want[s].session));
    EXPECT_EQ(got[s].session, want[s].session);
    EXPECT_EQ(got[s].model, want[s].model);
    EXPECT_EQ(got[s].satisfiable, want[s].satisfiable);
    EXPECT_EQ(got[s].reflexive_preference, want[s].reflexive_preference);
    if (!want[s].satisfiable || want[s].reflexive_preference) continue;

    const infer::LabelPattern& g = got[s].pattern;
    const infer::LabelPattern& w = want[s].pattern;
    ASSERT_EQ(g.NodeCount(), w.NodeCount());
    for (unsigned node = 0; node < w.NodeCount(); ++node) {
      EXPECT_EQ(g.NodeLabel(node), w.NodeLabel(node));
      EXPECT_EQ(g.Parents(node), w.Parents(node));
      EXPECT_EQ(g.Children(node), w.Children(node));
    }
    EXPECT_EQ(got[s].node_terms, want[s].node_terms);

    const infer::ItemLabeling& gl = got[s].labeling;
    const infer::ItemLabeling& wl = want[s].labeling;
    ASSERT_EQ(gl.item_count(), wl.item_count());
    for (rim::ItemId item = 0; item < wl.item_count(); ++item) {
      EXPECT_EQ(gl.LabelsOf(item), wl.LabelsOf(item)) << "item " << item;
    }
  }
}

/// Substitutes each of `values` for a one-variable head, as the answer
/// enumeration does.
std::vector<query::ConjunctiveQuery> HeadSubstitutions(
    const query::ConjunctiveQuery& query,
    const std::vector<std::string>& values) {
  PPREF_CHECK(query.head().size() == 1);
  std::vector<query::ConjunctiveQuery> bound;
  for (const std::string& value : values) {
    bound.push_back(query.Substitute(query.head().front(), db::Value(value)));
  }
  return bound;
}

TEST(ReductionDifferentialTest, MatchesReferenceOnEveryFuzzWorld) {
  // The worlds and queries of the three FuzzTest cases, drawn from the same
  // seeds in the same order.
  {
    Rng rng(987654321);
    for (int trial = 0; trial < 150; ++trial) {
      const fuzz::FuzzWorld world = fuzz::MakeWorld(rng);
      const std::string text = fuzz::RandomItemwiseQuery(world, rng);
      ExpectSameReductions(world.ppd,
                           query::ParseQuery(text, world.ppd.schema()));
    }
  }
  {
    Rng rng(123456789);
    for (int trial = 0; trial < 60; ++trial) {
      const fuzz::FuzzWorld world = fuzz::MakeWorld(rng);
      for (int disjunct = 0; disjunct < 2; ++disjunct) {
        const std::string text = fuzz::RandomItemwiseQuery(world, rng);
        ExpectSameReductions(world.ppd,
                             query::ParseQuery(text, world.ppd.schema()));
      }
    }
  }
  {
    Rng rng(55555);
    for (int trial = 0; trial < 40; ++trial) {
      const fuzz::FuzzWorld world = fuzz::MakeWorld(rng);
      const auto q = query::ParseQuery("Q(x) :- P(s; x; y), A(y, 't0')",
                                       world.ppd.schema());
      for (const query::ConjunctiveQuery& bound :
           HeadSubstitutions(q, world.items)) {
        ExpectSameReductions(world.ppd, bound);
      }
    }
  }
}

TEST(ReductionDifferentialTest, MatchesReferenceOnPaperQueries) {
  const RimPpd ppd = ElectionPpd();
  for (const char* text : {ppref::testing::kQ1, ppref::testing::kQ3,
                           ppref::testing::kQ4}) {
    ExpectSameReductions(ppd, ppref::testing::ParsePaperQuery(text));
  }
  // Q2 is not itemwise: both reject it the same way.
  const query::ConjunctiveQuery q2 =
      ppref::testing::ParsePaperQuery(ppref::testing::kQ2);
  EXPECT_THROW(reference::ReduceItemwise(ppd, q2), SchemaError);
  EXPECT_THROW(ReduceItemwise(ppd, q2), SchemaError);
}

TEST(ReductionDifferentialTest, MatchesReferenceOnPollingWorkloadShape) {
  // 8 candidates, 500 voter sessions sharing 250 Mallows models, and the
  // 16 party/sex CQs of the polling workload, plus CQs whose o-components
  // mention the voter (their memo key varies by session).
  RimPpd ppd(db::ElectionSchema());
  Rng rng(20170514);
  std::vector<db::Value> names;
  for (unsigned c = 0; c < 8; ++c) {
    names.emplace_back("cand" + std::to_string(c));
    ppd.AddFact("Candidates",
                {names.back(), c % 2 == 0 ? "D" : "R",
                 (c / 2) % 2 == 0 ? "M" : "F", c % 3 == 0 ? "BS" : "JD"});
  }
  std::vector<SessionModel> pool;
  for (unsigned p = 0; p < 250; ++p) {
    std::vector<db::Value> reference = names;
    for (std::size_t i = reference.size(); i > 1; --i) {
      std::swap(reference[i - 1], reference[rng.NextIndex(i)]);
    }
    pool.push_back(
        SessionModel::Mallows(reference, 0.3 + 0.6 * rng.NextUnit()));
  }
  for (unsigned v = 0; v < 500; ++v) {
    const db::Value voter("voter" + std::to_string(v));
    ppd.AddFact("Voters", {voter, v % 2 == 0 ? "BS" : "JD",
                           v % 3 == 0 ? "F" : "M",
                           static_cast<std::int64_t>(20 + v % 50)});
    ppd.AddSession("Polls", {voter, "Oct-5"}, pool[v % 250]);
  }
  std::vector<std::string> texts;
  const char* classes[][2] = {{"D", "M"}, {"D", "F"}, {"R", "M"}, {"R", "F"}};
  for (const auto& left : classes) {
    for (const auto& right : classes) {
      texts.push_back(std::string("Q() :- Polls(v, _; l; r), ") +
                      "Candidates(l, '" + left[0] + "', '" + left[1] +
                      "', _), Candidates(r, '" + right[0] + "', '" +
                      right[1] + "', _)");
    }
  }
  texts.push_back(ppref::testing::kQ1);
  texts.push_back(ppref::testing::kQ4);
  texts.push_back(
      "Q() :- Polls(v, d; l; 'cand3'), Voters(v, _, 'F', _), "
      "Candidates(l, _, 'F', _)");
  for (const std::string& text : texts) {
    ExpectSameReductions(ppd, query::ParseQuery(text, ppd.schema()));
  }
}

}  // namespace
}  // namespace ppref::ppd
