#include "ppref/shell/shell.h"

#include <gtest/gtest.h>

#include <sstream>

#include "ppref/ppd/evaluator.h"
#include "ppref/ppd/io.h"
#include "ppref/query/parser.h"

namespace ppref::shell {
namespace {

/// Runs a script in a fresh shell, returning the accumulated output.
std::string RunScript(const std::string& script) {
  std::ostringstream out;
  Shell shell(out);
  shell.ExecuteScript(script);
  return out.str();
}

TEST(ShellTest, HelpListsCommands) {
  const std::string out = RunScript("\\help\n");
  EXPECT_NE(out.find("\\query"), std::string::npos);
  EXPECT_NE(out.find("\\mallows"), std::string::npos);
}

TEST(ShellTest, QuitStopsScript) {
  std::ostringstream out;
  Shell shell(out);
  EXPECT_EQ(shell.ExecuteScript("\\quit\n\\help\n"), 1u);
}

TEST(ShellTest, UnknownCommandIsReportedNotFatal) {
  const std::string out = RunScript("\\frobnicate\n\\help\n");
  EXPECT_NE(out.find("unknown command"), std::string::npos);
  EXPECT_NE(out.find("\\query"), std::string::npos);  // kept going
}

TEST(ShellTest, BlankAndCommentLinesIgnored) {
  EXPECT_EQ(RunScript("\n# comment\n   \n"), "");
}

TEST(ShellTest, DeclareSchemaInsertAndQuery) {
  const std::string out = RunScript(
      "\\osymbol Color item,color\n"
      "\\psymbol Pref user|l|r\n"
      "\\fact Color \"a\",\"red\"\n"
      "\\fact Color \"b\",\"blue\"\n"
      "\\mallows Pref 1.0 | \"u1\" | \"a\",\"b\"\n"
      "\\query Q() :- Pref(u; l; r), Color(l, 'red'), Color(r, 'blue')\n");
  EXPECT_NE(out.find("o-symbol Color declared"), std::string::npos);
  EXPECT_NE(out.find("session added"), std::string::npos);
  // Uniform over two items: Pr(a > b) = 0.5, exact.
  EXPECT_NE(out.find("conf = 0.5 (exact)"), std::string::npos);
}

TEST(ShellTest, ElectionExampleQueries) {
  const std::string out = RunScript(
      "\\election\n"
      "\\classify Q() :- Polls(_, _; l; r), Candidates(l, p, 'M', _), "
      "Candidates(r, p, 'F', _)\n"
      "\\query Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders')\n"
      "\\answers Q(l) :- Polls('Ann', 'Oct-5'; l; 'Trump')\n");
  EXPECT_NE(out.find("itemwise: no"), std::string::npos);
  EXPECT_NE(out.find("(exact)"), std::string::npos);
  EXPECT_NE(out.find("('Clinton')"), std::string::npos);
  EXPECT_NE(out.find("('Rubio')"), std::string::npos);
}

TEST(ShellTest, NonItemwiseSmallFallsBackToEnumeration) {
  const std::string out = RunScript(
      "\\election\n"
      "\\query Q() :- Polls(_, _; l; r), Candidates(l, p, 'M', _), "
      "Candidates(r, p, 'F', _)\n");
  EXPECT_NE(out.find("possible-world enumeration"), std::string::npos);
}

TEST(ShellTest, UnionCommand) {
  const std::string out = RunScript(
      "\\election\n"
      "\\union Q() :- Polls('Ann', 'Oct-5'; 'Trump'; 'Clinton') UNION "
      "Q() :- Polls('Bob', 'Oct-5'; 'Trump'; 'Sanders')\n");
  EXPECT_NE(out.find("conf = "), std::string::npos);
  EXPECT_NE(out.find("(exact)"), std::string::npos);
}

TEST(ShellTest, ApproxCommandReportsGuarantee) {
  const std::string out = RunScript(
      "\\election\n"
      "\\approx 0.1 0.1 Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders')\n");
  EXPECT_NE(out.find("w.p. >= 0.9"), std::string::npos);
  EXPECT_NE(out.find("150 samples"), std::string::npos);
}

TEST(ShellTest, ApproxRejectsOutOfRangeEpsilonAndKeepsGoing) {
  const std::string out = RunScript(
      "\\election\n"
      "\\approx 0 0.1 Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders')\n"
      "\\help\n");
  EXPECT_NE(out.find("error: epsilon must be in (0, 1), got 0"),
            std::string::npos);
  EXPECT_NE(out.find("\\query"), std::string::npos);  // kept going
}

TEST(ShellTest, ApproxRejectsEpsilonTooSmallForTheCounter) {
  const std::string out = RunScript(
      "\\election\n"
      "\\approx 1e-5 0.1 Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders')\n"
      "\\approx x 0.1 Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders')\n"
      "\\help\n");
  EXPECT_NE(out.find("samples, over the limit of 4294967295"),
            std::string::npos);
  EXPECT_NE(out.find("error: \\approx expects"), std::string::npos);
  EXPECT_NE(out.find("\\query"), std::string::npos);  // kept going
}

TEST(ShellTest, ApproxIsReproducible) {
  // Figure 1's query: a voter prefers a male Democrat to a female Democrat.
  const std::string command =
      "\\approx 0.1 0.1 Q() :- Polls(v, _; l; r), "
      "Candidates(l, 'D', 'M', _), Candidates(r, 'D', 'F', _)\n";
  const std::string out = RunScript("\\election\n" + command + command);
  const std::size_t first = out.find("conf ~ ");
  ASSERT_NE(first, std::string::npos);
  const std::size_t second = out.find("conf ~ ", first + 1);
  ASSERT_NE(second, std::string::npos);
  EXPECT_EQ(out.substr(first, out.find('\n', first) - first),
            out.substr(second, out.find('\n', second) - second));
}

TEST(ShellTest, SaveAndLoadInlineRoundTrip) {
  std::ostringstream out1;
  Shell shell(out1);
  shell.ExecuteScript("\\election\n\\save\n");
  const std::string saved = out1.str();
  // Extract from the first directive onward (skip the banner line).
  const std::string ppd_text = saved.substr(saved.find("osymbol"));

  std::ostringstream out2;
  Shell shell2(out2);
  shell2.ExecuteScript("\\load-inline\n" + ppd_text + "end-load\n");
  EXPECT_NE(out2.str().find("loaded PPD"), std::string::npos);
  EXPECT_EQ(shell2.ppd().PInstance("Polls").session_count(), 3u);
}

TEST(ShellTest, ErrorsAreReportedInline) {
  const std::string out = RunScript(
      "\\election\n"
      "\\query Q() :- Nope(x)\n"
      "\\fact Voters \"only\",\"two\"\n"
      "\\fact Nope \"x\"\n"
      "\\mallows Polls 0.5 | \"Ann\",\"Oct-5\" | \"a\",\"b\"\n"
      "\\help\n");
  EXPECT_NE(out.find("error: unknown relation symbol"), std::string::npos);
  EXPECT_NE(out.find("expects 4"), std::string::npos);
  EXPECT_NE(out.find("not a declared o-symbol"), std::string::npos);
  EXPECT_NE(out.find("duplicate session"), std::string::npos);
  // The shell keeps going after every error.
  EXPECT_NE(out.find("\\union"), std::string::npos);
}

TEST(ShellTest, SessionsListsModels) {
  const std::string out = RunScript("\\election\n\\sessions Polls\n");
  EXPECT_NE(out.find("MAL(<'Clinton', 'Sanders', 'Rubio', 'Trump'>, phi=0.3)"),
            std::string::npos);
}

TEST(ShellTest, ExplainCommandShowsThePlan) {
  const std::string out = RunScript(
      "\\election\n"
      "\\explain Q() :- Polls(v, d; l; 'Trump'), Candidates(l, _, 'F', _)\n");
  EXPECT_NE(out.find("Section 4.4 reduction"), std::string::npos);
  EXPECT_NE(out.find("potential matches"), std::string::npos);
  EXPECT_NE(out.find("result: conf ="), std::string::npos);
}

TEST(ShellTest, SplitCommandEvaluatesHardQueries) {
  const std::string out = RunScript(
      "\\election\n"
      "\\split Q() :- Polls(_, _; l; r), Candidates(l, p, 'M', _), "
      "Candidates(r, p, 'F', _)\n");
  EXPECT_NE(out.find("conf = 0.83783"), std::string::npos);
  EXPECT_NE(out.find("2 itemwise disjuncts"), std::string::npos);
}

TEST(ShellTest, SweepMatchesExactQueryAtSessionDispersion) {
  // Ann's session is MAL(..., phi=0.3); sweeping phi=0.3 re-binds the
  // circuit to exactly the stored dispersion, so the confidence must agree
  // with the exact evaluator to the last printed digit.
  std::ostringstream out;
  Shell shell(out);
  shell.ExecuteScript(
      "\\election\n"
      "\\sweep 0.3 Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders')\n");
  const double expected = ppd::EvaluateBoolean(
      shell.ppd(),
      query::ParseQuery("Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders')",
                        shell.ppd().schema()));
  std::ostringstream want;
  want << "phi = 0.3  conf = " << expected;
  EXPECT_NE(out.str().find(want.str()), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("1 sessions, 1 points"), std::string::npos)
      << out.str();
}

TEST(ShellTest, SweepReusesCachedCircuitsAcrossCalls) {
  const std::string script =
      "\\sweep 0.2,0.5,0.8 Q() :- Polls(v, d; 'Clinton'; 'Trump')\n";
  const std::string out = RunScript("\\election\n" + script + script);
  // The election sessions span two distinct model structures (reference
  // rankings differ), so the first sweep compiles twice and hits once; the
  // second sweep is served entirely from the cache.
  EXPECT_NE(out.find("3 sessions, 3 points; circuits: 2 compiled, 1 cache "
                     "hits"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("3 sessions, 3 points; circuits: 0 compiled, 3 cache "
                     "hits"),
            std::string::npos)
      << out;
  // One confidence line per grid point, per sweep.
  std::size_t lines = 0;
  for (std::size_t at = out.find("phi = "); at != std::string::npos;
       at = out.find("phi = ", at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 6u);
}

TEST(ShellTest, SweepRejectsNonTractableQueries) {
  const std::string out = RunScript(
      "\\election\n"
      "\\sweep 0.5 Q() :- Polls(_, _; l; r), Candidates(l, p, 'M', _), "
      "Candidates(r, p, 'F', _)\n"
      "\\help\n");
  EXPECT_NE(out.find("error: \\sweep needs an itemwise query"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\\union"), std::string::npos);  // shell kept going
}

TEST(ShellTest, SweepRejectsDispersionsOutsideUnitInterval) {
  const std::string out = RunScript(
      "\\election\n"
      "\\sweep 0.3,1.5 Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders')\n"
      "\\sweep nope Q() :- Polls('Ann', 'Oct-5'; 'Clinton'; 'Sanders')\n");
  EXPECT_NE(out.find("'1.5' must be a number in (0, 1]"), std::string::npos)
      << out;
  EXPECT_NE(out.find("'nope' must be a number in (0, 1]"), std::string::npos)
      << out;
}

TEST(ShellTest, HelpListsSweep) {
  const std::string out = RunScript("\\help\n");
  EXPECT_NE(out.find("\\sweep"), std::string::npos);
}

TEST(ShellTest, AnalyticsCommandShowsWinnersAndConsensus) {
  const std::string out = RunScript("\\election\n\\analytics Polls\n");
  EXPECT_NE(out.find("winner probabilities"), std::string::npos);
  EXPECT_NE(out.find("'Clinton'"), std::string::npos);
  EXPECT_NE(out.find("consensus"), std::string::npos);
  EXPECT_NE(out.find("(3 sessions)"), std::string::npos);
}

}  // namespace
}  // namespace ppref::shell
