#include "ppref/serve/fingerprint.h"

#include <algorithm>
#include <utility>

#include "ppref/common/hash.h"

namespace ppref::serve {
namespace {

// Domain-separation tags, one per fingerprinted type, so e.g. an empty
// pattern and an empty tracked set cannot produce the same digest.
enum : std::uint64_t {
  kTagModel = 0x70707265664D4F44ull,     // "ppref" MOD
  kTagLabeling = 0x70707265664C4142ull,  // LAB
  kTagPattern = 0x7070726566504154ull,   // PAT
  kTagTracked = 0x7070726566545243ull,   // TRC
  kTagStructure = 0x7070726566535452ull, // STR
};

}  // namespace

std::uint64_t FingerprintModel(const rim::RimModel& model) {
  StreamHash hash;
  hash.Mix(kTagModel);
  hash.Mix(model.size());
  for (rim::ItemId item : model.reference().order()) hash.Mix(item);
  for (unsigned t = 0; t < model.size(); ++t) {
    const std::vector<double>& row = model.insertion().Row(t);
    hash.Mix(row.size());
    hash.MixDoubles(row);
  }
  return hash.digest();
}

std::uint64_t FingerprintModelStructure(const rim::RimModel& model) {
  StreamHash hash;
  hash.Mix(kTagStructure);
  hash.Mix(model.size());
  for (rim::ItemId item : model.reference().order()) hash.Mix(item);
  return hash.digest();
}

std::uint64_t FingerprintLabeling(const infer::ItemLabeling& labeling) {
  StreamHash hash;
  hash.Mix(kTagLabeling);
  hash.Mix(labeling.item_count());
  std::vector<infer::LabelId> labels;
  for (rim::ItemId item = 0; item < labeling.item_count(); ++item) {
    labels = labeling.LabelsOf(item);
    std::sort(labels.begin(), labels.end());
    hash.Mix(labels.size());
    for (infer::LabelId label : labels) hash.Mix(label);
  }
  return hash.digest();
}

std::uint64_t FingerprintLabeledModel(const infer::LabeledRimModel& model) {
  return HashCombine(FingerprintModel(model.model()),
                     FingerprintLabeling(model.labeling()));
}

std::uint64_t FingerprintPattern(const infer::LabelPattern& pattern) {
  const unsigned k = pattern.NodeCount();
  std::vector<infer::LabelId> labels(k);
  for (unsigned node = 0; node < k; ++node) labels[node] = pattern.NodeLabel(node);
  std::vector<std::pair<infer::LabelId, infer::LabelId>> edges;
  for (unsigned from = 0; from < k; ++from) {
    for (unsigned to : pattern.Children(from)) {
      edges.emplace_back(labels[from], labels[to]);
    }
  }
  std::sort(labels.begin(), labels.end());
  std::sort(edges.begin(), edges.end());
  StreamHash hash;
  hash.Mix(kTagPattern);
  hash.Mix(k);
  for (infer::LabelId label : labels) hash.Mix(label);
  hash.Mix(edges.size());
  for (const auto& [from, to] : edges) {
    hash.Mix(from);
    hash.Mix(to);
  }
  return hash.digest();
}

std::uint64_t FingerprintTracked(const std::vector<infer::LabelId>& tracked) {
  StreamHash hash;
  hash.Mix(kTagTracked);
  hash.Mix(tracked.size());
  for (infer::LabelId label : tracked) hash.Mix(label);
  return hash.digest();
}

std::uint64_t PlanKey(const infer::LabeledRimModel& model,
                      const infer::LabelPattern& pattern,
                      const std::vector<infer::LabelId>& tracked) {
  return HashCombine(
      HashCombine(FingerprintLabeledModel(model), FingerprintPattern(pattern)),
      FingerprintTracked(tracked));
}

std::uint64_t CircuitKey(const infer::LabeledRimModel& model,
                         const infer::LabelPattern& pattern) {
  return HashCombine(HashCombine(FingerprintModelStructure(model.model()),
                                 FingerprintLabeling(model.labeling())),
                     FingerprintPattern(pattern));
}

}  // namespace ppref::serve
