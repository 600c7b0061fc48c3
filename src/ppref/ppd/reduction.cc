#include "ppref/ppd/reduction.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>

#include "ppref/common/check.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/top_prob.h"
#include "ppref/obs/metrics.h"
#include "ppref/query/classify.h"
#include "ppref/query/eval.h"

namespace ppref::ppd {
namespace {

using query::Atom;
using query::ConjunctiveQuery;
using query::Term;

/// The session terms of the query's p-atoms and the set S of variables
/// among them, in first-occurrence order. Matching a session binds exactly
/// S, whatever the session, so a session's binding is one value per slot.
struct SessionTerms {
  std::vector<Term> terms;
  std::vector<std::string> variables;  // S
  /// Per term: its slot in `variables`, or kConstant.
  std::vector<std::size_t> slot;
  /// Per term: true at a variable's first occurrence (which binds it).
  std::vector<bool> binds;

  static constexpr std::size_t kConstant = static_cast<std::size_t>(-1);

  explicit SessionTerms(std::vector<Term> session_terms)
      : terms(std::move(session_terms)) {
    for (const Term& term : terms) {
      if (!term.is_variable()) {
        slot.push_back(kConstant);
        binds.push_back(false);
        continue;
      }
      const std::optional<std::size_t> known = SlotOf(term.variable());
      binds.push_back(!known.has_value());
      slot.push_back(known.value_or(variables.size()));
      if (!known.has_value()) variables.push_back(term.variable());
    }
  }

  std::optional<std::size_t> SlotOf(const std::string& variable) const {
    const auto it = std::find(variables.begin(), variables.end(), variable);
    if (it == variables.end()) return std::nullopt;
    return static_cast<std::size_t>(it - variables.begin());
  }
};

/// Unifies the p-atoms' session terms with a session tuple. Returns false on
/// mismatch; otherwise `values[k]` holds the value bound to S's k-th
/// variable.
bool MatchSession(const SessionTerms& session_terms, const db::Tuple& session,
                  std::vector<const db::Value*>& values) {
  PPREF_CHECK(session_terms.terms.size() == session.size());
  values.assign(session_terms.variables.size(), nullptr);
  for (std::size_t i = 0; i < session.size(); ++i) {
    const std::size_t slot = session_terms.slot[i];
    if (slot == SessionTerms::kConstant) {
      if (session_terms.terms[i].constant() != session[i]) return false;
    } else if (session_terms.binds[i]) {
      values[slot] = &session[i];
    } else if (*values[slot] != session[i]) {
      return false;
    }
  }
  return true;
}

/// A stable key for an item term: variables by name, constants by rendered
/// value (kinds disambiguated by Value::ToString quoting).
std::string TermKey(const Term& term) {
  return term.is_variable() ? "var:" + term.variable()
                            : "const:" + term.constant().ToString();
}

/// The label pattern g over the p-atoms' item terms, in first-occurrence
/// order, with reflexive detection (σ ≻ σ stops the build).
struct Pattern {
  infer::LabelPattern pattern;
  std::vector<std::string> node_terms;
  std::vector<Term> item_terms;  // per node
  std::vector<std::string> item_keys;  // TermKey per node
  bool reflexive = false;

  unsigned NodeOfVariable(const std::string& variable) const {
    const auto it =
        std::find(item_keys.begin(), item_keys.end(), "var:" + variable);
    PPREF_CHECK(it != item_keys.end());
    return static_cast<unsigned>(it - item_keys.begin());
  }
};

/// Builds g with every item term passed through `resolve` (the session's
/// substitution, or the identity when no item term is a session variable).
template <typename Resolve>
Pattern BuildPattern(const std::vector<const Atom*>& p_atoms,
                     const Resolve& resolve) {
  Pattern g;
  auto node_of_term = [&](const Term& term) {
    std::string key = TermKey(term);
    const auto it = std::find(g.item_keys.begin(), g.item_keys.end(), key);
    if (it != g.item_keys.end()) {
      return static_cast<unsigned>(it - g.item_keys.begin());
    }
    g.item_terms.push_back(term);
    g.item_keys.push_back(std::move(key));
    g.node_terms.push_back(term.ToString());
    return g.pattern.AddNode(
        static_cast<infer::LabelId>(g.item_terms.size() - 1));
  };
  for (const Atom* p_atom : p_atoms) {
    const unsigned lhs = node_of_term(resolve(p_atom->Lhs()));
    const unsigned rhs = node_of_term(resolve(p_atom->Rhs()));
    if (lhs == rhs) {
      g.reflexive = true;
      break;
    }
    g.pattern.AddEdge(lhs, rhs);
  }
  return g;
}

/// One o-component of the query with S read as constants (atoms join only
/// on variables outside S), plus its memo of o-database checks.
struct OComponent {
  /// The component's atoms, S left as variables: a check binds the
  /// component's S-variables to the session's values instead.
  ConjunctiveQuery query{{}, {}};
  /// The item variable (ItemVariables() minus S), empty when item-free.
  std::string item_variable;
  /// Slots of the S-variables the component mentions: its memo key.
  std::vector<std::size_t> key_slots;
  /// The item variable's node in the query-level pattern.
  unsigned node = 0;

  struct Memo {
    /// Item-free: -1 unknown, else whether the component is satisfiable.
    std::int8_t satisfiable = -1;
    /// With an item variable: per interned item value, -1 unknown, else
    /// whether the component is satisfiable with the variable bound to it.
    std::vector<std::int8_t> by_item;
  };
  std::map<std::vector<db::Value>, Memo> memo;
};

/// Connected components of the o-atoms under shared variables outside S,
/// ordered by union-find root. Substituting a session replaces exactly S,
/// so these are the components of every session's Q^s.
std::vector<OComponent> OComponents(const ConjunctiveQuery& query,
                                    const SessionTerms& session_terms) {
  const std::vector<const Atom*> o_atoms = query.OAtoms();
  const std::size_t n = o_atoms.size();
  // Variables per atom, outside S.
  std::vector<std::vector<std::string>> atom_vars(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const Term& term : o_atoms[i]->terms) {
      if (term.is_variable() && !session_terms.SlotOf(term.variable())) {
        atom_vars[i].push_back(term.variable());
      }
    }
  }
  // Union-find over atoms.
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool shares = std::any_of(
          atom_vars[i].begin(), atom_vars[i].end(), [&](const std::string& v) {
            return std::find(atom_vars[j].begin(), atom_vars[j].end(), v) !=
                   atom_vars[j].end();
          });
      if (shares) parent[find(i)] = find(j);
    }
  }
  std::map<std::size_t, std::vector<std::size_t>> by_root;
  for (std::size_t i = 0; i < n; ++i) by_root[find(i)].push_back(i);

  const std::vector<std::string> item_variables = query.ItemVariables();
  std::vector<OComponent> components;
  for (const auto& [root, members] : by_root) {
    OComponent component;
    std::vector<Atom> atoms;
    std::vector<std::string> in_component;  // its item variables
    for (const std::size_t i : members) {
      atoms.push_back(*o_atoms[i]);
      for (const Term& term : o_atoms[i]->terms) {
        if (!term.is_variable()) continue;
        if (const auto slot = session_terms.SlotOf(term.variable())) {
          if (std::find(component.key_slots.begin(), component.key_slots.end(),
                        *slot) == component.key_slots.end()) {
            component.key_slots.push_back(*slot);
          }
        } else if (std::find(item_variables.begin(), item_variables.end(),
                             term.variable()) != item_variables.end() &&
                   std::find(in_component.begin(), in_component.end(),
                             term.variable()) == in_component.end()) {
          in_component.push_back(term.variable());
        }
      }
    }
    PPREF_CHECK_MSG(in_component.size() <= 1,
                    "itemwise invariant violated: component with "
                        << in_component.size() << " item variables");
    component.query = ConjunctiveQuery({}, std::move(atoms));
    if (!in_component.empty()) component.item_variable = in_component.front();
    components.push_back(std::move(component));
  }
  return components;
}

/// Dense ids for the item values met during one reduction, so an item
/// component's memo is a flat vector.
class ItemIds {
 public:
  unsigned IdOf(const db::Value& item) {
    const auto [it, inserted] =
        ids_.try_emplace(item, static_cast<unsigned>(items_.size()));
    if (inserted) items_.push_back(&it->first);
    return it->second;
  }
  const db::Value& ValueOf(unsigned id) const { return *items_[id]; }

 private:
  std::unordered_map<db::Value, unsigned, db::ValueHash> ids_;
  std::vector<const db::Value*> items_;
};

}  // namespace

std::vector<SessionReduction> ReduceItemwise(const RimPpd& ppd,
                                             const ConjunctiveQuery& query) {
  if (!query.IsBoolean()) {
    throw SchemaError("ReduceItemwise expects a Boolean query; substitute the "
                      "head variables first");
  }
  if (query.PAtoms().empty()) {
    throw SchemaError("ReduceItemwise expects at least one p-atom");
  }
  if (!query::IsItemwise(query)) {
    throw SchemaError("query is not itemwise: " + query.ToString());
  }

  // ---- Built once per query. ----
  const std::vector<const Atom*> p_atoms = query.PAtoms();
  const Atom& first_p = *p_atoms.front();
  const SessionTerms session_terms(first_p.SessionTerms());
  const RimPreferenceInstance& instance = ppd.PInstance(first_p.symbol);
  const db::Database& o_database = ppd.ODatabase();

  // The pattern is session-independent unless an item term is in S; then
  // each session's substitution can create constants that collide with
  // other item terms (merging nodes, or making σ ≻ σ), so it is rebuilt.
  const bool pattern_per_session = std::any_of(
      p_atoms.begin(), p_atoms.end(), [&](const Atom* p_atom) {
        return std::any_of(
            p_atom->terms.begin() + p_atom->session_arity, p_atom->terms.end(),
            [&](const Term& term) {
              return term.is_variable() &&
                     session_terms.SlotOf(term.variable()).has_value();
            });
      });
  const Pattern query_pattern = BuildPattern(
      p_atoms, [](const Term& term) -> const Term& { return term; });

  std::vector<OComponent> components = OComponents(query, session_terms);
  bool any_item_component = false;
  for (OComponent& component : components) {
    if (component.item_variable.empty()) continue;
    any_item_component = true;
    if (!pattern_per_session && !query_pattern.reflexive) {
      component.node = query_pattern.NodeOfVariable(component.item_variable);
    }
  }

  // ---- Per session. ----
  ItemIds item_ids;
  std::vector<const db::Value*> values;
  std::vector<db::Value> key;
  std::vector<unsigned> session_item_ids;
  // The binding of one o-database check: the component's S-variables and,
  // for an item component, its item variable.
  auto check = [&](const OComponent& component,
                   const db::Value* item) -> std::int8_t {
    query::Binding binding;
    for (const std::size_t slot : component.key_slots) {
      binding.emplace(session_terms.variables[slot], *values[slot]);
    }
    if (item != nullptr) binding.emplace(component.item_variable, *item);
    return query::IsSatisfiable(component.query, o_database, binding) ? 1 : 0;
  };

  std::vector<bool> term_resolved;
  std::vector<SessionReduction> reductions;
  reductions.reserve(instance.session_count());
  for (const auto& [session, model] : instance.sessions()) {
    if (!MatchSession(session_terms, session, values)) continue;

    SessionReduction reduction;
    reduction.session = session;
    reduction.model = &model;
    reduction.labeling = infer::ItemLabeling(model.size());

    Pattern session_pattern;
    if (pattern_per_session) {
      session_pattern = BuildPattern(p_atoms, [&](const Term& term) {
        if (term.is_variable()) {
          if (const auto slot = session_terms.SlotOf(term.variable())) {
            return Term::Const(*values[*slot]);
          }
        }
        return term;
      });
    }
    const Pattern& g = pattern_per_session ? session_pattern : query_pattern;
    reduction.pattern = g.pattern;
    reduction.node_terms = g.node_terms;
    if (g.reflexive) {
      reduction.reflexive_preference = true;
      reductions.push_back(std::move(reduction));
      continue;
    }

    if (any_item_component) {
      session_item_ids.resize(model.size());
      for (rim::ItemId id = 0; id < model.size(); ++id) {
        session_item_ids[id] = item_ids.IdOf(model.ItemOf(id));
      }
    }

    // O-components: satisfiability for item-variable-free ones, potential
    // matches for the single item variable otherwise (Lemma 4.8 part 2).
    term_resolved.assign(g.item_terms.size(), false);
    for (OComponent& component : components) {
      key.clear();
      for (const std::size_t slot : component.key_slots) {
        key.push_back(*values[slot]);
      }
      OComponent::Memo& memo = component.memo[key];
      if (component.item_variable.empty()) {
        if (memo.satisfiable < 0) memo.satisfiable = check(component, nullptr);
        if (memo.satisfiable == 0) {
          reduction.satisfiable = false;
          break;
        }
        continue;
      }
      // Potential matches of the item variable against each session item.
      const unsigned node =
          pattern_per_session ? g.NodeOfVariable(component.item_variable)
                              : component.node;
      term_resolved[node] = true;
      const infer::LabelId label = g.pattern.NodeLabel(node);
      for (rim::ItemId id = 0; id < model.size(); ++id) {
        const unsigned item = session_item_ids[id];
        if (item >= memo.by_item.size()) memo.by_item.resize(item + 1, -1);
        if (memo.by_item[item] < 0) {
          memo.by_item[item] = check(component, &item_ids.ValueOf(item));
        }
        if (memo.by_item[item] != 0) reduction.labeling.AddLabel(id, label);
      }
    }
    if (!reduction.satisfiable) {
      reductions.push_back(std::move(reduction));
      continue;
    }

    // Remaining terms: constants label their own item; item variables with
    // no o-atoms are matched by every item.
    for (unsigned node = 0; node < g.item_terms.size(); ++node) {
      if (term_resolved[node]) continue;
      const infer::LabelId label = g.pattern.NodeLabel(node);
      const Term& term = g.item_terms[node];
      if (term.is_variable()) {
        for (rim::ItemId id = 0; id < model.size(); ++id) {
          reduction.labeling.AddLabel(id, label);
        }
      } else if (const auto id = model.IdOf(term.constant()); id.has_value()) {
        reduction.labeling.AddLabel(*id, label);
      }
      // A constant absent from the session's items leaves its label empty,
      // making the pattern probability 0 — as required.
    }
    reductions.push_back(std::move(reduction));
  }
  return reductions;
}

double SessionProb(const SessionReduction& reduction,
                   const infer::PatternProbOptions& options) {
  PPREF_CHECK(reduction.model != nullptr);
  // Process-wide PPD workload counters: evaluated sessions, split by the
  // trivial short-circuit vs. the ones that reach the inference engine.
  static obs::Counter& sessions = obs::MetricsRegistry::Default().GetCounter(
      "ppref_ppd_sessions_total",
      "Session reductions evaluated via SessionProb");
  static obs::Counter& trivial = obs::MetricsRegistry::Default().GetCounter(
      "ppref_ppd_sessions_trivial_total",
      "Sessions short-circuited to 0 (unsatisfiable or reflexive)");
  sessions.Inc();
  if (!reduction.satisfiable || reduction.reflexive_preference) {
    trivial.Inc();
    return 0.0;
  }
  const infer::LabeledRimModel labeled(reduction.model->model(),
                                       reduction.labeling);
  return infer::PatternProb(labeled, reduction.pattern, options);
}

}  // namespace ppref::ppd
