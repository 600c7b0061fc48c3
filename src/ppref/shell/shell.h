/// \file shell.h
/// \brief An interactive command interpreter over RIM-PPDs: declare schemas,
/// load data, and evaluate probabilistic queries from text — the small
/// "database system" face of the library (the paper's long-term goal in §6).
///
/// Commands (one per line; see `\help`):
///
///   \osymbol Candidates candidate,party,sex,edu
///   \psymbol Polls voter,date|lcand|rcand
///   \fact Candidates "Clinton","D","F","JD"
///   \mallows Polls 0.3 | "Ann","Oct-5" | "Clinton","Sanders","Rubio","Trump"
///   \classify Q() :- Polls(v, d; l; r), Candidates(l, 'D', _, _)
///   \explain Q() :- ...             (the evaluation plan, §4.4 reduction)
///   \query Q() :- ...               (exact when itemwise; else enum <= 1e6
///                                    worlds; else Monte Carlo)
///   \answers Q(x) :- ...
///   \union Q() :- ... UNION Q() :- ...
///   \approx 0.05 0.01 Q() :- ...
///   \sweep 0.1,0.5,0.9 Q() :- ...   (confidence at each dispersion, via one
///                                    cached arithmetic circuit per session)
///   \hard 0.01 Q() :- ...           (adaptive Monte-Carlo estimate with a
///                                    CI half-width target — the hard tier)
///   \consensus Polls 3              (top-k consensus ranking per session
///                                    under footrule/Kendall distance)
///   \split Q() :- ...               (exact non-itemwise eval, splitting.h)
///   \analytics Polls                (winner probabilities + consensus)
///   \sessions Polls
///   \save                            (prints the serialized PPD)
///   \load-inline ... end             (multi-line PPD text until 'end-load')
///   \election                        (loads the paper's running example)
///   \help, \quit

#ifndef PPREF_SHELL_SHELL_H_
#define PPREF_SHELL_SHELL_H_

#include <memory>
#include <ostream>
#include <string>

#include "ppref/ppd/ppd.h"
#include "ppref/serve/server.h"

namespace ppref::shell {

/// A line-oriented interpreter bound to an output stream. All errors are
/// caught and reported to the stream; the interpreter never throws.
class Shell {
 public:
  explicit Shell(std::ostream& out);

  /// Executes one line. Returns false iff the command was \quit.
  bool Execute(const std::string& line);

  /// Runs every line of `script` (stops early on \quit). Returns the number
  /// of lines executed.
  unsigned ExecuteScript(const std::string& script);

  /// The current database (e.g. for tests).
  const ppd::RimPpd& ppd() const { return *ppd_; }

 private:
  void Reset(ppd::RimPpd ppd);
  void CommandHelp();
  void CommandOSymbol(const std::string& args);
  void CommandPSymbol(const std::string& args);
  void CommandFact(const std::string& args);
  void CommandMallows(const std::string& args);
  void CommandClassify(const std::string& args);
  void CommandQuery(const std::string& args);
  void CommandAnswers(const std::string& args);
  void CommandUnion(const std::string& args);
  void CommandApprox(const std::string& args);
  void CommandSweep(const std::string& args);
  void CommandHard(const std::string& args);
  void CommandConsensus(const std::string& args);
  void CommandSessions(const std::string& args);
  void CommandSave();

  std::ostream& out_;
  std::unique_ptr<ppd::RimPpd> ppd_;
  /// Lazily built serving core backing \sweep: its circuit cache persists
  /// across commands, so repeated sweeps over the same query shape recompile
  /// nothing.
  std::unique_ptr<serve::Server> server_;
  // Multi-line \load-inline accumulation state.
  bool loading_ = false;
  std::string pending_load_;
};

}  // namespace ppref::shell

#endif  // PPREF_SHELL_SHELL_H_
