#include "ppref/infer/uniform_extensions.h"

#include "ppref/common/check.h"
#include "ppref/infer/matching.h"

namespace ppref::infer {

UniformExtensions::UniformExtensions(PartialOrder order)
    : order_(std::move(order)) {
  const unsigned n = order_.size();
  PPREF_CHECK_MSG(n >= 1 && n <= 20, "UniformExtensions supports 1..20 items");
  predecessors_.assign(n, 0);
  for (rim::ItemId a = 0; a < n; ++a) {
    for (rim::ItemId b = 0; b < n; ++b) {
      if (order_.Precedes(a, b)) predecessors_[b] |= (1u << a);
    }
  }
  // Fill counts for every downset, ascending masks (sub-downsets first).
  downset_counts_.emplace(0u, 1u);
  const std::uint32_t full = (1u << n) - 1;
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    bool downset = true;
    for (unsigned i = 0; i < n && downset; ++i) {
      if ((mask & (1u << i)) && (predecessors_[i] & ~mask)) downset = false;
    }
    if (!downset) continue;
    std::uint64_t count = 0;
    for (unsigned i = 0; i < n; ++i) {
      if (!(mask & (1u << i))) continue;
      bool maximal = true;
      for (unsigned j = 0; j < n; ++j) {
        if (j != i && (mask & (1u << j)) && (predecessors_[j] & (1u << i))) {
          maximal = false;
          break;
        }
      }
      if (maximal) count += downset_counts_.at(mask & ~(1u << i));
    }
    downset_counts_.emplace(mask, count);
  }
}

std::uint64_t UniformExtensions::CountFor(std::uint32_t mask) const {
  return downset_counts_.at(mask);
}

std::uint64_t UniformExtensions::ExtensionCount() const {
  return CountFor((1u << order_.size()) - 1);
}

double UniformExtensions::PairwiseMarginal(rim::ItemId a, rim::ItemId b) const {
  PPREF_CHECK(a < order_.size() && b < order_.size() && a != b);
  if (order_.Precedes(a, b)) return 1.0;
  if (order_.Precedes(b, a)) return 0.0;
  PartialOrder augmented = order_;
  augmented.Add(a, b);
  augmented.Close();
  const UniformExtensions with_pair(augmented);
  return static_cast<double>(with_pair.ExtensionCount()) /
         static_cast<double>(ExtensionCount());
}

rim::Ranking UniformExtensions::Sample(Rng& rng) const {
  const unsigned n = order_.size();
  std::uint32_t remaining = (1u << n) - 1;
  std::vector<rim::ItemId> reversed;  // built back to front
  reversed.reserve(n);
  while (remaining != 0) {
    // Maximal items of the remaining downset, weighted by sub-counts.
    std::vector<rim::ItemId> maximal;
    std::vector<double> weights;
    for (unsigned i = 0; i < n; ++i) {
      if (!(remaining & (1u << i))) continue;
      bool is_maximal = true;
      for (unsigned j = 0; j < n; ++j) {
        if (j != i && (remaining & (1u << j)) &&
            (predecessors_[j] & (1u << i))) {
          is_maximal = false;
          break;
        }
      }
      if (is_maximal) {
        maximal.push_back(i);
        weights.push_back(
            static_cast<double>(CountFor(remaining & ~(1u << i))));
      }
    }
    const rim::ItemId chosen = maximal[rng.NextWeighted(weights)];
    reversed.push_back(chosen);
    remaining &= ~(1u << chosen);
  }
  std::vector<rim::ItemId> order(reversed.rbegin(), reversed.rend());
  return rim::Ranking(std::move(order));
}

void UniformExtensions::ForEachExtension(
    double max_extensions,
    const std::function<void(const rim::Ranking&)>& visit) const {
  PPREF_CHECK_MSG(static_cast<double>(ExtensionCount()) <= max_extensions,
                  "enumerating " << ExtensionCount()
                                 << " extensions exceeds the cap "
                                 << max_extensions);
  const unsigned n = order_.size();
  std::vector<rim::ItemId> suffix;  // built back to front
  std::function<void(std::uint32_t)> recurse = [&](std::uint32_t remaining) {
    if (remaining == 0) {
      std::vector<rim::ItemId> order(suffix.rbegin(), suffix.rend());
      visit(rim::Ranking(std::move(order)));
      return;
    }
    for (unsigned i = 0; i < n; ++i) {
      if (!(remaining & (1u << i))) continue;
      bool is_maximal = true;
      for (unsigned j = 0; j < n; ++j) {
        if (j != i && (remaining & (1u << j)) &&
            (predecessors_[j] & (1u << i))) {
          is_maximal = false;
          break;
        }
      }
      if (!is_maximal) continue;
      suffix.push_back(i);
      recurse(remaining & ~(1u << i));
      suffix.pop_back();
    }
  };
  recurse((1u << n) - 1);
}

double UniformExtensions::PatternProbExact(const LabelPattern& pattern,
                                           const ItemLabeling& labeling,
                                           double max_extensions) const {
  PPREF_CHECK(labeling.item_count() == order_.size());
  std::uint64_t hits = 0;
  ForEachExtension(max_extensions, [&](const rim::Ranking& tau) {
    if (Matches(pattern, labeling, tau)) ++hits;
  });
  return static_cast<double>(hits) / static_cast<double>(ExtensionCount());
}

hard::BernoulliEstimate UniformExtensions::PatternProbSampled(
    const LabelPattern& pattern, const ItemLabeling& labeling,
    unsigned samples, Rng& rng) const {
  PPREF_CHECK(samples > 0);
  PPREF_CHECK(labeling.item_count() == order_.size());
  unsigned hits = 0;
  for (unsigned s = 0; s < samples; ++s) {
    if (Matches(pattern, labeling, Sample(rng))) ++hits;
  }
  return hard::EstimateFromBernoulliCount(hits, samples);
}

}  // namespace ppref::infer
