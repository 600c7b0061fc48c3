/// \file reduction_reference.h
/// \brief Test-only reference for the §4.4 reduction: the straightforward
/// per-session loop that substitutes each session into the query, splits
/// the bound query's o-atoms into components and checks every item of the
/// session against them. `ReduceItemwise` plans the session-independent
/// part once per query; the differential test in
/// reduction_differential_test.cc pins it to this loop field by field.

#ifndef PPREF_TESTS_PPD_REDUCTION_REFERENCE_H_
#define PPREF_TESTS_PPD_REDUCTION_REFERENCE_H_

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "ppref/common/check.h"
#include "ppref/ppd/reduction.h"
#include "ppref/query/classify.h"
#include "ppref/query/eval.h"

namespace ppref::ppd::reference {

/// Unifies the p-atoms' session terms with a session tuple.
inline bool MatchSession(const std::vector<query::Term>& session_terms,
                         const db::Tuple& session, query::Binding& binding) {
  PPREF_CHECK(session_terms.size() == session.size());
  for (std::size_t i = 0; i < session_terms.size(); ++i) {
    const query::Term& term = session_terms[i];
    if (!term.is_variable()) {
      if (term.constant() != session[i]) return false;
      continue;
    }
    const auto it = binding.find(term.variable());
    if (it != binding.end()) {
      if (it->second != session[i]) return false;
    } else {
      binding.emplace(term.variable(), session[i]);
    }
  }
  return true;
}

struct OComponent {
  std::vector<query::Atom> atoms;
  std::vector<std::string> variables;
};

/// Connected components of the o-atoms under shared variables, ordered by
/// union-find root.
inline std::vector<OComponent> OComponents(
    const query::ConjunctiveQuery& query) {
  const std::vector<const query::Atom*> o_atoms = query.OAtoms();
  const std::size_t n = o_atoms.size();
  std::vector<std::vector<std::string>> atom_vars(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const query::Term& term : o_atoms[i]->terms) {
      if (term.is_variable()) atom_vars[i].push_back(term.variable());
    }
  }
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
  std::map<std::size_t, OComponent> by_root;
  for (std::size_t i = 0; i < n; ++i) {
    OComponent& component = by_root[find(i)];
    component.atoms.push_back(*o_atoms[i]);
    for (const std::string& v : atom_vars[i]) {
      if (std::find(component.variables.begin(), component.variables.end(),
                    v) == component.variables.end()) {
        component.variables.push_back(v);
      }
    }
  }
  std::vector<OComponent> components;
  for (auto& [root, component] : by_root) {
    components.push_back(std::move(component));
  }
  return components;
}

inline std::string TermKey(const query::Term& term) {
  return term.is_variable() ? "var:" + term.variable()
                            : "const:" + term.constant().ToString();
}

/// The reduction, one session at a time: Q^s is built by substitution and
/// every o-component is checked against the o-database for every item.
inline std::vector<SessionReduction> ReduceItemwise(
    const RimPpd& ppd, const query::ConjunctiveQuery& query) {
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

  const query::Atom& first_p = *query.PAtoms().front();
  const std::vector<query::Term> session_terms = first_p.SessionTerms();
  const RimPreferenceInstance& instance = ppd.PInstance(first_p.symbol);

  std::vector<SessionReduction> reductions;
  for (const auto& [session, model] : instance.sessions()) {
    query::Binding binding;
    if (!MatchSession(session_terms, session, binding)) continue;

    query::ConjunctiveQuery bound = query;
    for (const auto& [variable, value] : binding) {
      bound = bound.Substitute(variable, value);
    }

    SessionReduction reduction;
    reduction.session = session;
    reduction.model = &model;
    reduction.labeling = infer::ItemLabeling(model.size());

    std::vector<query::Term> item_terms;
    std::vector<std::string> item_keys;
    auto node_of_term = [&](const query::Term& term) {
      const std::string key = TermKey(term);
      const auto it = std::find(item_keys.begin(), item_keys.end(), key);
      if (it != item_keys.end()) {
        return static_cast<unsigned>(it - item_keys.begin());
      }
      item_terms.push_back(term);
      item_keys.push_back(key);
      reduction.node_terms.push_back(term.ToString());
      return reduction.pattern.AddNode(
          static_cast<infer::LabelId>(item_terms.size() - 1));
    };

    for (const query::Atom* p_atom : bound.PAtoms()) {
      const unsigned lhs = node_of_term(p_atom->Lhs());
      const unsigned rhs = node_of_term(p_atom->Rhs());
      if (lhs == rhs) {
        reduction.reflexive_preference = true;
        break;
      }
      reduction.pattern.AddEdge(lhs, rhs);
    }
    if (reduction.reflexive_preference) {
      reductions.push_back(std::move(reduction));
      continue;
    }

    const std::vector<std::string> item_variables = bound.ItemVariables();
    std::vector<bool> term_resolved(item_terms.size(), false);
    for (const OComponent& component : OComponents(bound)) {
      std::vector<std::string> in_component;
      for (const std::string& v : component.variables) {
        if (std::find(item_variables.begin(), item_variables.end(), v) !=
            item_variables.end()) {
          in_component.push_back(v);
        }
      }
      PPREF_CHECK(in_component.size() <= 1);
      const query::ConjunctiveQuery component_query({}, component.atoms);
      if (in_component.empty()) {
        if (!query::IsSatisfiable(component_query, ppd.ODatabase())) {
          reduction.satisfiable = false;
          break;
        }
        continue;
      }
      const std::string& x = in_component.front();
      const auto node =
          std::find(item_keys.begin(), item_keys.end(), "var:" + x);
      PPREF_CHECK(node != item_keys.end());
      const unsigned node_index =
          static_cast<unsigned>(node - item_keys.begin());
      term_resolved[node_index] = true;
      for (rim::ItemId id = 0; id < model.size(); ++id) {
        query::Binding item_binding;
        item_binding.emplace(x, model.ItemOf(id));
        if (query::IsSatisfiable(component_query, ppd.ODatabase(),
                                 item_binding)) {
          reduction.labeling.AddLabel(id,
                                      reduction.pattern.NodeLabel(node_index));
        }
      }
    }
    if (!reduction.satisfiable) {
      reductions.push_back(std::move(reduction));
      continue;
    }

    for (unsigned node = 0; node < item_terms.size(); ++node) {
      if (term_resolved[node]) continue;
      const infer::LabelId label = reduction.pattern.NodeLabel(node);
      const query::Term& term = item_terms[node];
      if (term.is_variable()) {
        for (rim::ItemId id = 0; id < model.size(); ++id) {
          reduction.labeling.AddLabel(id, label);
        }
      } else if (const auto id = model.IdOf(term.constant()); id.has_value()) {
        reduction.labeling.AddLabel(*id, label);
      }
    }
    reductions.push_back(std::move(reduction));
  }
  return reductions;
}

}  // namespace ppref::ppd::reference

#endif  // PPREF_TESTS_PPD_REDUCTION_REFERENCE_H_
