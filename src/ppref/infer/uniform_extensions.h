/// \file uniform_extensions.h
/// \brief The uniform distribution over the linear extensions of a partial
/// order — the distribution at the core of the Lemma 4.6 hardness proof.
///
/// This family is *not* RIM in general (Lemma 4.6 is precisely about RIM
/// queries simulating #LE counting), so TopProb does not apply. Exact
/// inference here runs on downset-counting dynamic programs over at most 20
/// items: pairwise marginals, exact uniform sampling (sequential maximal-
/// item selection weighted by sub-counts), and pattern probabilities by
/// extension enumeration (guarded) or sampling.

#ifndef PPREF_INFER_UNIFORM_EXTENSIONS_H_
#define PPREF_INFER_UNIFORM_EXTENSIONS_H_

#include <cstdint>
#include <unordered_map>

#include "ppref/common/random.h"
#include "ppref/hard/estimator.h"
#include "ppref/infer/labeling.h"
#include "ppref/infer/linear_extensions.h"
#include "ppref/infer/pattern.h"

namespace ppref::infer {

/// Uniform distribution over rnk(A | ≻) for a strict partial order ≻.
class UniformExtensions {
 public:
  /// `order` should be transitively closed (call Close()); the poset must
  /// have at least one extension (guaranteed for any valid partial order).
  explicit UniformExtensions(PartialOrder order);

  unsigned size() const { return order_.size(); }
  const PartialOrder& order() const { return order_; }

  /// |rnk(A | ≻)|.
  std::uint64_t ExtensionCount() const;

  /// Pr(a ≻_τ b) for a uniform extension τ: #LE(≻ ∪ {a≻b}) / #LE(≻).
  /// Returns 1 (resp. 0) when the order already forces a ≻ b (b ≻ a).
  double PairwiseMarginal(rim::ItemId a, rim::ItemId b) const;

  /// Draws a uniform extension: repeatedly emits a maximal remaining item
  /// w.p. proportional to the number of extensions of the rest. O(m²) per
  /// sample after the one-off DP.
  rim::Ranking Sample(Rng& rng) const;

  /// Invokes `visit` on every extension (in a canonical order). PPREF_CHECKs
  /// that ExtensionCount() <= max_extensions.
  void ForEachExtension(double max_extensions,
                        const std::function<void(const rim::Ranking&)>& visit)
      const;

  /// Exact Pr(a random extension matches `pattern` w.r.t. `labeling`), by
  /// enumeration. PPREF_CHECKs the extension-count guard.
  double PatternProbExact(const LabelPattern& pattern,
                          const ItemLabeling& labeling,
                          double max_extensions = 1e6) const;

  /// Sampling estimate of the pattern probability (works at any size).
  hard::BernoulliEstimate PatternProbSampled(const LabelPattern& pattern,
                                             const ItemLabeling& labeling,
                                             unsigned samples, Rng& rng) const;

 private:
  /// #LE of the suborder on the downset `mask` (predecessor-closed sets).
  std::uint64_t CountFor(std::uint32_t mask) const;

  PartialOrder order_;
  std::vector<std::uint32_t> predecessors_;  // bitmask per item
  // Memoized downset counts (filled on construction for all downsets).
  std::unordered_map<std::uint32_t, std::uint64_t> downset_counts_;
};

}  // namespace ppref::infer

#endif  // PPREF_INFER_UNIFORM_EXTENSIONS_H_
