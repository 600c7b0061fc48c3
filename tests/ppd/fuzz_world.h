/// \file fuzz_world.h
/// \brief Random small PPDs and itemwise query templates shared by the
/// randomized evaluator tests (fuzz_test.cc) and the reduction's
/// differential test (reduction_differential_test.cc).

#ifndef PPREF_TESTS_PPD_FUZZ_WORLD_H_
#define PPREF_TESTS_PPD_FUZZ_WORLD_H_

#include <string>
#include <utility>
#include <vector>

#include "ppref/common/random.h"
#include "ppref/ppd/ppd.h"

namespace ppref::ppd::fuzz {

struct FuzzWorld {
  RimPpd ppd;
  std::vector<std::string> items;     // global item pool (quoted on use)
  std::vector<std::string> sessions;  // session names
};

/// Builds a random PPD over o-symbols A(item, tag), B(item, tag),
/// S(sess, item) and p-symbol P(sess; l; r), small enough for exhaustive
/// enumeration. S ties items to sessions, so an o-atom over it makes an
/// o-component's answer depend on the session. A session is sometimes named
/// after an item, so a session variable used as an item term can denote one
/// of the session's own items (or collide with an item constant).
inline FuzzWorld MakeWorld(Rng& rng) {
  db::PreferenceSchema schema;
  schema.AddOSymbol("A", db::RelationSignature({"item", "tag"}));
  schema.AddOSymbol("B", db::RelationSignature({"item", "tag"}));
  schema.AddOSymbol("S", db::RelationSignature({"sess", "item"}));
  schema.AddPSymbol("P", db::PreferenceSignature(
                             db::RelationSignature({"sess"}), "l", "r"));
  FuzzWorld world{RimPpd(std::move(schema)), {}, {}};

  const unsigned item_count = 3 + static_cast<unsigned>(rng.NextIndex(2));
  for (unsigned i = 0; i < item_count; ++i) {
    world.items.push_back("i" + std::to_string(i));
  }
  const char* tags[] = {"t0", "t1"};
  for (const std::string& item : world.items) {
    for (const char* symbol : {"A", "B"}) {
      // Each item gets 0-2 tag rows per symbol.
      for (const char* tag : tags) {
        if (rng.NextUnit() < 0.5) {
          world.ppd.AddFact(symbol, {db::Value(item), db::Value(tag)});
        }
      }
    }
  }
  const unsigned session_count = 1 + static_cast<unsigned>(rng.NextIndex(2));
  for (unsigned s = 0; s < session_count; ++s) {
    world.sessions.push_back((rng.NextIndex(2) == 0 ? "i" : "s") +
                             std::to_string(s));
    const db::Value session(world.sessions.back());
    for (const std::string& item : world.items) {
      if (rng.NextUnit() < 0.5) {
        world.ppd.AddFact("S", {session, db::Value(item)});
      }
    }
    // Random reference order over all items, random dispersion.
    std::vector<db::Value> order;
    for (const std::string& item : world.items) order.push_back(item);
    for (unsigned i = static_cast<unsigned>(order.size()); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextIndex(i)]);
    }
    world.ppd.AddSession("P", {session},
                         SessionModel::Mallows(std::move(order),
                                               0.2 + 0.8 * rng.NextUnit()));
  }
  return world;
}

/// Instantiates one of several itemwise query templates.
inline std::string RandomItemwiseQuery(const FuzzWorld& world, Rng& rng) {
  auto item = [&] {
    return "'" + world.items[rng.NextIndex(world.items.size())] + "'";
  };
  auto sess = [&] {
    return "'" + world.sessions[rng.NextIndex(world.sessions.size())] + "'";
  };
  auto tag = [&] {
    return std::string(rng.NextIndex(2) == 0 ? "'t0'" : "'t1'");
  };
  switch (rng.NextIndex(12)) {
    case 0:
      return "Q() :- P(s; x; y), A(x, " + tag() + ")";
    case 1:
      return "Q() :- P(s; x; y), A(x, " + tag() + "), B(y, " + tag() + ")";
    case 2:
      return "Q() :- P(s; x; " + item() + "), A(x, " + tag() + ")";
    case 3:
      return "Q() :- P(s; x; y), P(s; y; z), A(y, " + tag() + ")";
    case 4:
      // One item variable shared by two o-atoms joined on the tag.
      return "Q() :- P(" + sess() + "; x; y), A(x, t), B(x, t)";
    case 5:
      return "Q() :- P(s; x; y), P(s; x; z), A(y, " + tag() + "), B(z, " +
             tag() + ")";
    case 6:
      return "Q() :- P(s; " + item() + "; " + item() + ")";
    case 7:
      return "Q() :- P(s; x; y), A(x, " + tag() + "), A(y, " + tag() + ")";
    case 8:
      // The potential matches of x depend on the session.
      return "Q() :- P(s; x; y), S(s, x), B(y, " + tag() + ")";
    case 9:
      // An item-free o-component that mentions the session.
      return "Q() :- P(s; x; y), S(s, " + item() + "), A(y, " + tag() + ")";
    case 10:
      // The session variable as an item term, constrained per session.
      return "Q() :- P(s; x; s), S(s, x)";
    default:
      // The session variable as an item term beside an item constant: when
      // the session is named after that item the two terms are one node.
      return "Q() :- P(s; s; " + item() + ")";
  }
}

}  // namespace ppref::ppd::fuzz

#endif  // PPREF_TESTS_PPD_FUZZ_WORLD_H_
