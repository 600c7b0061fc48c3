#include "ppref/shell/shell.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "ppref/common/check.h"
#include "ppref/db/csv.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/labeling.h"
#include "ppref/ppd/analytics.h"
#include "ppref/ppd/evaluator.h"
#include "ppref/ppd/explain.h"
#include "ppref/ppd/io.h"
#include "ppref/ppd/monte_carlo_evaluator.h"
#include "ppref/ppd/possible_worlds.h"
#include "ppref/ppd/reduction.h"
#include "ppref/ppd/splitting.h"
#include "ppref/ppd/ucq_evaluator.h"
#include "ppref/query/classify.h"
#include "ppref/query/parser.h"
#include "ppref/query/ucq.h"

namespace ppref::shell {
namespace {

/// Seed of every sampled answer the shell prints (PODS'17 conference date):
/// the same command prints the same answer.
constexpr std::uint64_t kSampleSeed = 20170514;

/// Splits "cmd rest..." into the command word and the remainder.
std::pair<std::string, std::string> SplitCommand(const std::string& line) {
  std::size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos) return {"", ""};
  std::size_t end = line.find_first_of(" \t", start);
  if (end == std::string::npos) return {line.substr(start), ""};
  std::size_t rest = line.find_first_not_of(" \t", end);
  return {line.substr(start, end - start),
          rest == std::string::npos ? "" : line.substr(rest)};
}

/// Parses "a,b,c|l|r" into a preference signature.
db::PreferenceSignature ParsePSignatureSpec(const std::string& spec) {
  const std::size_t bar1 = spec.find('|');
  const std::size_t bar2 =
      bar1 == std::string::npos ? std::string::npos : spec.find('|', bar1 + 1);
  if (bar1 == std::string::npos || bar2 == std::string::npos) {
    throw ParseError("p-symbol spec must be 'attrs|lhs|rhs', got: " + spec);
  }
  std::vector<std::string> session_attrs;
  std::string current;
  for (char c : spec.substr(0, bar1)) {
    if (c == ',') {
      session_attrs.push_back(current);
      current.clear();
    } else if (c != ' ') {
      current += c;
    }
  }
  if (!current.empty()) session_attrs.push_back(current);
  return db::PreferenceSignature(db::RelationSignature(session_attrs),
                                 spec.substr(bar1 + 1, bar2 - bar1 - 1),
                                 spec.substr(bar2 + 1));
}

db::Tuple ParseRow(const std::string& text) {
  const auto rows = db::ParseCsv(text);
  if (rows.size() != 1) throw ParseError("expected one CSV row: " + text);
  return rows[0];
}

}  // namespace

Shell::Shell(std::ostream& out)
    : out_(out),
      ppd_(std::make_unique<ppd::RimPpd>(db::PreferenceSchema{})) {}

void Shell::Reset(ppd::RimPpd ppd) {
  ppd_ = std::make_unique<ppd::RimPpd>(std::move(ppd));
}

unsigned Shell::ExecuteScript(const std::string& script) {
  std::istringstream stream(script);
  std::string line;
  unsigned executed = 0;
  while (std::getline(stream, line)) {
    ++executed;
    if (!Execute(line)) break;
  }
  return executed;
}

bool Shell::Execute(const std::string& line) {
  if (loading_) {
    if (line == "end-load") {
      loading_ = false;
      try {
        Reset(ppd::ReadPpd(pending_load_));
        out_ << "loaded PPD\n";
      } catch (const std::exception& error) {
        out_ << "error: " << error.what() << "\n";
      }
      pending_load_.clear();
    } else {
      pending_load_ += line + "\n";
    }
    return true;
  }

  const auto [command, args] = SplitCommand(line);
  if (command.empty() || command[0] == '#') return true;
  try {
    if (command == "\\quit") return false;
    if (command == "\\help") {
      CommandHelp();
    } else if (command == "\\osymbol") {
      CommandOSymbol(args);
    } else if (command == "\\psymbol") {
      CommandPSymbol(args);
    } else if (command == "\\fact") {
      CommandFact(args);
    } else if (command == "\\mallows") {
      CommandMallows(args);
    } else if (command == "\\classify") {
      CommandClassify(args);
    } else if (command == "\\explain") {
      out_ << ppd::ExplainQuery(*ppd_,
                                query::ParseQuery(args, ppd_->schema()));
    } else if (command == "\\query") {
      CommandQuery(args);
    } else if (command == "\\answers") {
      CommandAnswers(args);
    } else if (command == "\\union") {
      CommandUnion(args);
    } else if (command == "\\approx") {
      CommandApprox(args);
    } else if (command == "\\sweep") {
      CommandSweep(args);
    } else if (command == "\\hard") {
      CommandHard(args);
    } else if (command == "\\consensus") {
      CommandConsensus(args);
    } else if (command == "\\sessions") {
      CommandSessions(args);
    } else if (command == "\\analytics") {
      std::istringstream stream(args);
      std::string symbol;
      stream >> symbol;
      out_ << "winner probabilities (mean over sessions):\n";
      for (const auto& stat : ppd::WinnerDistribution(
               ppd_->PInstance(symbol))) {
        out_ << "  " << stat.item.ToString() << "  " << stat.value << "  ("
             << stat.supporting_sessions << " sessions)\n";
      }
      out_ << "consensus (by mean expected position):";
      for (const auto& item :
           ppd::CrossSessionConsensus(ppd_->PInstance(symbol))) {
        out_ << " " << item.ToString();
      }
      out_ << "\n";
    } else if (command == "\\split") {
      const auto q = query::ParseQuery(args, ppd_->schema());
      out_ << "conf = " << ppd::EvaluateBooleanBySplitting(*ppd_, q)
           << " (exact via grounding into "
           << ppd::SplitIntoItemwise(*ppd_, q).size()
           << " itemwise disjuncts)\n";
    } else if (command == "\\save") {
      CommandSave();
    } else if (command == "\\load-inline") {
      loading_ = true;
      pending_load_.clear();
    } else if (command == "\\election") {
      Reset(ppd::ElectionPpd());
      out_ << "loaded the running example (Figures 1-2)\n";
    } else {
      out_ << "error: unknown command '" << command
           << "' (try \\help)\n";
    }
  } catch (const std::exception& error) {
    out_ << "error: " << error.what() << "\n";
  }
  return true;
}

void Shell::CommandHelp() {
  out_ << "commands:\n"
          "  \\osymbol Name a,b,c          declare an ordinary relation\n"
          "  \\psymbol Name a,b|l|r        declare a preference relation\n"
          "  \\fact Name <csv row>         insert a fact\n"
          "  \\mallows P phi | sess | ref  add a Mallows session\n"
          "  \\classify Q() :- ...         sessionwise/itemwise/complexity\n"
          "  \\explain Q() :- ...          show the evaluation plan\n"
          "  \\query Q() :- ...            Boolean confidence\n"
          "  \\answers Q(x) :- ...         ranked possible answers\n"
          "  \\union Q() :- .. UNION ..    UCQ confidence\n"
          "  \\approx eps delta Q() :- ..  Hoeffding-guaranteed estimate\n"
          "  \\sweep p1,p2,.. Q() :- ..    confidence at each dispersion phi,\n"
          "                               one cached circuit per session\n"
          "  \\hard target Q() :- ..       adaptive Monte-Carlo estimate to a\n"
          "                               CI half-width target (hard tier)\n"
          "  \\consensus P k               top-k consensus ranking per session\n"
          "                               (footrule-optimal, sampled worlds)\n"
          "  \\split Q() :- ...            exact non-itemwise eval by\n"
          "                               grounding join variables\n"
          "  \\analytics P                 winner probs + consensus order\n"
          "  \\sessions P                  list sessions of a p-symbol\n"
          "  \\save                        print the PPD in io.h format\n"
          "  \\load-inline ... end-load    replace the PPD from text\n"
          "  \\election                    load the paper's example\n"
          "  \\quit\n";
}

void Shell::CommandOSymbol(const std::string& args) {
  std::istringstream stream(args);
  std::string name, attrs;
  stream >> name >> attrs;
  std::vector<std::string> names;
  std::string current;
  for (char c : attrs) {
    if (c == ',') {
      names.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) names.push_back(current);
  db::PreferenceSchema schema = ppd_->schema();
  schema.AddOSymbol(name, db::RelationSignature(names));
  // Rebuild, carrying existing contents over.
  ppd::RimPpd rebuilt(schema);
  for (const std::string& symbol : ppd_->schema().OSymbols()) {
    for (const db::Tuple& tuple : ppd_->OInstance(symbol)) {
      rebuilt.AddFact(symbol, tuple);
    }
  }
  for (const std::string& symbol : ppd_->schema().PSymbols()) {
    for (const auto& [session, model] : ppd_->PInstance(symbol).sessions()) {
      rebuilt.AddSession(symbol, session, model);
    }
  }
  Reset(std::move(rebuilt));
  out_ << "o-symbol " << name << " declared\n";
}

void Shell::CommandPSymbol(const std::string& args) {
  std::istringstream stream(args);
  std::string name, spec;
  stream >> name >> spec;
  db::PreferenceSchema schema = ppd_->schema();
  schema.AddPSymbol(name, ParsePSignatureSpec(spec));
  ppd::RimPpd rebuilt(schema);
  for (const std::string& symbol : ppd_->schema().OSymbols()) {
    for (const db::Tuple& tuple : ppd_->OInstance(symbol)) {
      rebuilt.AddFact(symbol, tuple);
    }
  }
  for (const std::string& symbol : ppd_->schema().PSymbols()) {
    for (const auto& [session, model] : ppd_->PInstance(symbol).sessions()) {
      rebuilt.AddSession(symbol, session, model);
    }
  }
  Reset(std::move(rebuilt));
  out_ << "p-symbol " << name << " declared\n";
}

void Shell::CommandFact(const std::string& args) {
  const auto [symbol, row] = SplitCommand(args);
  if (!ppd_->schema().IsOSymbol(symbol)) {
    throw SchemaError("'" + symbol + "' is not a declared o-symbol");
  }
  db::Tuple tuple = ParseRow(row);
  const unsigned arity = ppd_->schema().Arity(symbol);
  if (tuple.size() != arity) {
    throw SchemaError("fact " + db::ToString(tuple) + " has " +
                      std::to_string(tuple.size()) + " fields; '" + symbol +
                      "' expects " + std::to_string(arity));
  }
  ppd_->AddFact(symbol, std::move(tuple));
  out_ << "ok\n";
}

void Shell::CommandMallows(const std::string& args) {
  // "<symbol> <phi> | <session csv> | <reference csv>"
  std::istringstream stream(args);
  std::string symbol;
  double phi = 0.0;
  stream >> symbol >> phi;
  std::string rest;
  std::getline(stream, rest);
  const std::size_t bar1 = rest.find('|');
  const std::size_t bar2 =
      bar1 == std::string::npos ? std::string::npos : rest.find('|', bar1 + 1);
  if (bar1 == std::string::npos || bar2 == std::string::npos) {
    throw ParseError(
        "usage: \\mallows P phi | session csv | reference csv");
  }
  const std::string session_text = rest.substr(bar1 + 1, bar2 - bar1 - 1);
  const std::string reference_text = rest.substr(bar2 + 1);
  const bool empty_session =
      session_text.find_first_not_of(" \t") == std::string::npos;
  ppd_->AddSession(symbol,
                   empty_session ? db::Tuple{} : ParseRow(session_text),
                   ppd::SessionModel::Mallows(ParseRow(reference_text), phi));
  out_ << "session added\n";
}

void Shell::CommandClassify(const std::string& args) {
  const auto q = query::ParseQuery(args, ppd_->schema());
  out_ << "sessionwise: " << (query::IsSessionwise(q) ? "yes" : "no")
       << "  itemwise: " << (query::IsItemwise(q) ? "yes" : "no")
       << "  complexity: " << query::ToString(query::Classify(q)) << "\n";
}

void Shell::CommandQuery(const std::string& args) {
  const auto q = query::ParseQuery(args, ppd_->schema());
  if (!q.IsBoolean()) {
    out_ << "error: \\query expects a Boolean query; use \\answers\n";
    return;
  }
  if (q.PAtoms().empty() || query::IsItemwise(q)) {
    out_ << "conf = " << ppd::EvaluateBoolean(*ppd_, q) << " (exact)\n";
  } else if (ppd::WorldCount(*ppd_) <= 1e6) {
    out_ << "conf = " << ppd::EvaluateBooleanByEnumeration(*ppd_, q)
         << " (non-itemwise: possible-world enumeration)\n";
  } else {
    infer::McOptions options;
    options.samples = 20000;
    options.seed = kSampleSeed;
    const auto estimate = ppd::EstimateBoolean(*ppd_, q, options);
    out_ << "conf ~ " << estimate.estimate << " +- " << estimate.std_error
         << " (non-itemwise: Monte Carlo, 20k worlds)\n";
  }
}

void Shell::CommandAnswers(const std::string& args) {
  const auto q = query::ParseQuery(args, ppd_->schema());
  const auto answers = ppd::EvaluateQuery(*ppd_, q);
  if (answers.empty()) {
    out_ << "no possible answers\n";
    return;
  }
  for (const auto& answer : answers) {
    out_ << "  " << db::ToString(answer.tuple) << "  conf = "
         << answer.confidence << "\n";
  }
}

void Shell::CommandUnion(const std::string& args) {
  const auto ucq = query::ParseUnionQuery(args, ppd_->schema());
  if (!ucq.IsBoolean()) {
    const auto answers = ppd::EvaluateUnionQuery(*ppd_, ucq);
    for (const auto& answer : answers) {
      out_ << "  " << db::ToString(answer.tuple) << "  conf = "
           << answer.confidence << "\n";
    }
    return;
  }
  out_ << "conf = " << ppd::EvaluateBooleanUnion(*ppd_, ucq) << " (exact)\n";
}

void Shell::CommandApprox(const std::string& args) {
  std::istringstream stream(args);
  double epsilon = 0.0, delta = 0.0;
  if (!(stream >> epsilon >> delta)) {
    out_ << "error: \\approx expects: eps delta Q() :- ...\n";
    return;
  }
  const Status valid = ppd::ValidateHoeffding(epsilon, delta);
  if (!valid.ok()) {
    out_ << "error: " << valid.message() << "\n";
    return;
  }
  std::string query_text;
  std::getline(stream, query_text);
  const auto q = query::ParseQuery(query_text, ppd_->schema());
  const auto result =
      ppd::ApproximateBoolean(*ppd_, q, epsilon, delta, kSampleSeed);
  out_ << "conf ~ " << result.estimate << " (+- " << epsilon << " w.p. >= "
       << 1 - delta << ", " << result.samples << " samples)\n";
}

void Shell::CommandSweep(const std::string& args) {
  // "<phi,phi,...> Q() :- ..." — each phi re-binds every session's Mallows
  // dispersion; sessions are compiled to circuits once and re-evaluated per
  // point, so the grid costs one DP's worth of work plus cheap re-bindings.
  const auto [grid_text, query_text] = SplitCommand(args);
  std::vector<std::vector<double>> params;
  auto push = [&params](const std::string& token) {
    char* end = nullptr;
    const double phi =
        token.empty() ? 0.0 : std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size() ||
        !(phi > 0.0 && phi <= 1.0)) {
      throw ParseError("sweep dispersion '" + token +
                       "' must be a number in (0, 1]; usage: \\sweep "
                       "0.1,0.5,0.9 Q() :- ...");
    }
    params.push_back({phi});
  };
  std::string current;
  for (char c : grid_text) {
    if (c == ',') {
      push(current);
      current.clear();
    } else if (c != ' ' && c != '\t') {
      current += c;
    }
  }
  push(current);

  const auto q = query::ParseQuery(query_text, ppd_->schema());
  if (!q.IsBoolean()) {
    out_ << "error: \\sweep expects a Boolean query\n";
    return;
  }
  if (q.PAtoms().empty() || !query::IsItemwise(q)) {
    out_ << "error: \\sweep needs an itemwise query with p-atoms (circuits "
            "exist only for the tractable class); use \\query instead\n";
    return;
  }

  if (server_ == nullptr) {
    server_ = std::make_unique<serve::Server>(serve::ServerOptions{});
  }
  const serve::ServerStats before = server_->Snapshot();

  // Per session s and grid point k: p_{s,k} from the session's cached
  // circuit re-bound to phi_k; the Boolean confidence at phi_k is
  // 1 - prod_s (1 - p_{s,k}), mirroring ppd::EvaluateBoolean.
  const auto reductions = ppd::ReduceItemwise(*ppd_, q);
  std::vector<double> none_matches(params.size(), 1.0);
  for (const auto& reduction : reductions) {
    if (!reduction.satisfiable || reduction.reflexive_preference) continue;
    const infer::LabeledRimModel labeled(reduction.model->model(),
                                         reduction.labeling);
    const StatusOr<std::vector<double>> probs =
        server_->PatternProbSweep(labeled, reduction.pattern, params);
    if (!probs.ok()) {
      out_ << "error: " << probs.status().ToString() << "\n";
      return;
    }
    for (std::size_t k = 0; k < params.size(); ++k) {
      none_matches[k] *= 1.0 - (*probs)[k];
    }
  }
  for (std::size_t k = 0; k < params.size(); ++k) {
    out_ << "  phi = " << params[k][0] << "  conf = " << 1.0 - none_matches[k]
         << "\n";
  }
  const serve::ServerStats after = server_->Snapshot();
  out_ << "(" << reductions.size() << " sessions, " << params.size()
       << " points; circuits: "
       << after.circuit_compiles - before.circuit_compiles << " compiled, "
       << after.circuit_cache.hits - before.circuit_cache.hits
       << " cache hits)\n";
}

void Shell::CommandHard(const std::string& args) {
  // "<target> Q() :- ..." — per-session adaptive Monte-Carlo estimates to a
  // 95%-CI half-width target, combined into the Boolean confidence
  // 1 - prod_s (1 - p_s) with first-order error propagation.
  std::istringstream stream(args);
  double target = 0.0;
  stream >> target;
  if (!stream || !(target >= 0.0 && target <= 1.0)) {
    out_ << "error: usage: \\hard <target in [0, 1]> Q() :- ...\n";
    return;
  }
  std::string query_text;
  std::getline(stream, query_text);
  const auto q = query::ParseQuery(query_text, ppd_->schema());
  if (!q.IsBoolean()) {
    out_ << "error: \\hard expects a Boolean query\n";
    return;
  }
  if (q.PAtoms().empty() || !query::IsItemwise(q)) {
    out_ << "error: \\hard needs an itemwise query with p-atoms; use \\query "
            "instead\n";
    return;
  }

  if (server_ == nullptr) {
    server_ = std::make_unique<serve::Server>(serve::ServerOptions{});
  }

  const auto reductions = ppd::ReduceItemwise(*ppd_, q);
  double none_match = 1.0;
  double variance = 0.0;  // first-order: sum over s of (prod_{t!=s})^2 se_s^2
  std::uint64_t samples = 0;
  std::vector<std::pair<double, double>> estimates;  // (p_s, se_s)
  for (const auto& reduction : reductions) {
    if (!reduction.satisfiable || reduction.reflexive_preference) continue;
    const infer::LabeledRimModel labeled(reduction.model->model(),
                                         reduction.labeling);
    const StatusOr<serve::HardEstimate> estimate =
        server_->HardPatternProb(labeled, reduction.pattern, target);
    if (!estimate.ok()) {
      out_ << "error: " << estimate.status().ToString() << "\n";
      return;
    }
    estimates.emplace_back(estimate->estimate, estimate->std_error);
    samples += estimate->n_samples;
    none_match *= 1.0 - estimate->estimate;
  }
  for (std::size_t s = 0; s < estimates.size(); ++s) {
    double others = 1.0;
    for (std::size_t t = 0; t < estimates.size(); ++t) {
      if (t != s) others *= 1.0 - estimates[t].first;
    }
    variance += others * others * estimates[s].second * estimates[s].second;
  }
  out_ << "conf ~ " << 1.0 - none_match << " (se ~ " << std::sqrt(variance)
       << ", target " << target << ", " << estimates.size() << " sessions, "
       << samples << " worlds)\n";
}

void Shell::CommandConsensus(const std::string& args) {
  // "P k" — for each session of p-symbol P, the footrule-optimal consensus
  // ranking over sampled worlds, truncated to its first k items, with the
  // estimated mean footrule/Kendall distance from a random world.
  std::istringstream stream(args);
  std::string symbol;
  unsigned top_k = 0;
  stream >> symbol >> top_k;
  if (symbol.empty() || top_k == 0) {
    out_ << "error: usage: \\consensus <p-symbol> <k>\n";
    return;
  }
  if (server_ == nullptr) {
    server_ = std::make_unique<serve::Server>(serve::ServerOptions{});
  }
  for (const auto& [session, model] : ppd_->PInstance(symbol).sessions()) {
    const infer::LabeledRimModel labeled(model.model(),
                                         infer::ItemLabeling(model.size()));
    const StatusOr<serve::ConsensusAnswer> answer =
        server_->ConsensusTopK(labeled, top_k);
    if (!answer.ok()) {
      out_ << "error: " << answer.status().ToString() << "\n";
      return;
    }
    out_ << "  " << db::ToString(session) << " ->";
    for (rim::ItemId id : answer->ranking) {
      out_ << " " << model.ItemOf(id).ToString();
    }
    out_ << "  (mean footrule " << answer->mean_footrule << " +- "
         << answer->footrule_std_error << ", mean kendall "
         << answer->mean_kendall << " +- " << answer->kendall_std_error << ", "
         << answer->n_samples << " worlds)\n";
  }
}

void Shell::CommandSessions(const std::string& args) {
  std::istringstream stream(args);
  std::string symbol;
  stream >> symbol;
  for (const auto& [session, model] : ppd_->PInstance(symbol).sessions()) {
    out_ << "  " << db::ToString(session) << " -> " << model.ToString()
         << "\n";
  }
}

void Shell::CommandSave() { out_ << ppd::WritePpd(*ppd_); }

}  // namespace ppref::shell
