#include "ppref/store/codec.h"

#include <cstring>
#include <utility>

#include "ppref/rim/insertion.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/rim_model.h"
#include "ppref/store/format.h"

namespace ppref::store {

namespace {

using circuit::Circuit;
using circuit::NodeId;
using circuit::Op;

/// Caps decoded element counts so a corrupt count cannot force a huge
/// allocation before the bounds check catches it: every counted element
/// occupies at least `element_bytes` in the remaining input.
bool CountFits(const ByteReader& reader, std::uint64_t count,
               std::size_t element_bytes) {
  return count <= reader.remaining() / element_bytes;
}

}  // namespace

// -- models and patterns ----------------------------------------------------

void AppendModel(std::string& out, const infer::LabeledRimModel& model) {
  const unsigned m = model.size();
  PutU32(out, m);
  PutU32s(out, model.model().reference().order());
  for (unsigned t = 0; t < m; ++t) {
    PutDoubles(out, model.model().insertion().Row(t));
  }
  for (rim::ItemId item = 0; item < m; ++item) {
    const std::vector<infer::LabelId>& labels =
        model.labeling().LabelsOf(item);
    PutU32(out, static_cast<std::uint32_t>(labels.size()));
    PutU32s(out, labels);
  }
}

std::optional<infer::LabeledRimModel> ReadModel(ByteReader& reader) {
  const std::uint32_t m = reader.U32();
  if (!reader.ok() || !CountFits(reader, m, 4)) return std::nullopt;
  std::vector<rim::ItemId> order(m);
  reader.U32s(order);
  if (!reader.ok()) return std::nullopt;
  // Ranking's constructor CHECKs permutation-ness; validate here so a
  // corrupt payload decodes to nullopt instead of aborting.
  std::vector<bool> seen(m, false);
  for (rim::ItemId item : order) {
    if (item >= m || seen[item]) return std::nullopt;
    seen[item] = true;
  }
  std::vector<std::vector<double>> rows(m);
  for (std::uint32_t t = 0; t < m; ++t) {
    if (!CountFits(reader, t + 1, 8)) return std::nullopt;
    rows[t].resize(t + 1);
    reader.Doubles(rows[t]);
    double sum = 0.0;
    for (double prob : rows[t]) {
      // InsertionFunction CHECKs non-negative rows summing to 1; pre-check.
      if (!(prob >= 0.0)) return std::nullopt;  // rejects NaN too
      sum += prob;
    }
    if (!(sum > 1.0 - rim::InsertionFunction::kRowSumTolerance &&
          sum < 1.0 + rim::InsertionFunction::kRowSumTolerance)) {
      return std::nullopt;
    }
  }
  if (!reader.ok()) return std::nullopt;
  infer::ItemLabeling labeling(m);
  for (rim::ItemId item = 0; item < m; ++item) {
    const std::uint32_t n = reader.U32();
    if (!reader.ok() || !CountFits(reader, n, 4)) return std::nullopt;
    for (std::uint32_t i = 0; i < n; ++i) {
      labeling.AddLabel(item, reader.U32());
    }
  }
  if (!reader.ok()) return std::nullopt;
  return infer::LabeledRimModel(
      rim::RimModel(rim::Ranking(std::move(order)),
                    rim::InsertionFunction(std::move(rows))),
      std::move(labeling));
}

void AppendPattern(std::string& out, const infer::LabelPattern& pattern) {
  const unsigned k = pattern.NodeCount();
  PutU32(out, k);
  for (unsigned node = 0; node < k; ++node) {
    PutU32(out, pattern.NodeLabel(node));
  }
  for (unsigned node = 0; node < k; ++node) {
    const std::vector<unsigned>& children = pattern.Children(node);
    PutU32(out, static_cast<std::uint32_t>(children.size()));
    for (unsigned child : children) PutU32(out, child);
  }
}

std::optional<infer::LabelPattern> ReadPattern(ByteReader& reader) {
  const std::uint32_t k = reader.U32();
  if (!reader.ok() || !CountFits(reader, k, 4)) return std::nullopt;
  infer::LabelPattern pattern;
  std::vector<bool> label_seen;
  std::vector<infer::LabelId> labels(k);
  for (std::uint32_t node = 0; node < k; ++node) {
    labels[node] = reader.U32();
    // AddNode CHECKs label uniqueness; pre-check against the decoded set.
    for (std::uint32_t prior = 0; reader.ok() && prior < node; ++prior) {
      if (labels[prior] == labels[node]) return std::nullopt;
    }
  }
  if (!reader.ok()) return std::nullopt;
  for (infer::LabelId label : labels) pattern.AddNode(label);
  for (std::uint32_t from = 0; from < k; ++from) {
    const std::uint32_t n = reader.U32();
    if (!reader.ok() || !CountFits(reader, n, 4)) return std::nullopt;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t to = reader.U32();
      if (!reader.ok() || to >= k || to == from) return std::nullopt;
      pattern.AddEdge(from, to);
    }
  }
  if (!reader.ok()) return std::nullopt;
  return pattern;
}

// -- kPlan ------------------------------------------------------------------

std::string EncodePlanPayload(const infer::LabeledRimModel& model,
                              const infer::LabelPattern& pattern,
                              const std::vector<infer::LabelId>& tracked,
                              const infer::internal::DpPlan& plan) {
  std::string out;
  AppendModel(out, model);
  AppendPattern(out, pattern);
  PutU32(out, static_cast<std::uint32_t>(tracked.size()));
  PutU32s(out, tracked);
  plan.AppendDerived(out);
  return out;
}

std::optional<DecodedPlan> DecodePlanPayload(std::string_view payload) {
  ByteReader reader(payload);
  std::optional<infer::LabeledRimModel> model = ReadModel(reader);
  if (!model.has_value()) return std::nullopt;
  std::optional<infer::LabelPattern> pattern = ReadPattern(reader);
  if (!pattern.has_value()) return std::nullopt;
  const std::uint32_t tracked_count = reader.U32();
  if (!reader.ok() || !CountFits(reader, tracked_count, 4)) return std::nullopt;
  std::vector<infer::LabelId> tracked(tracked_count);
  reader.U32s(tracked);
  if (!reader.ok()) return std::nullopt;
  return DecodedPlan{std::move(*model), std::move(*pattern),
                     std::move(tracked), std::string(reader.Rest())};
}

// -- kCircuit ---------------------------------------------------------------

std::string EncodeCircuitPayload(const Circuit& circuit) {
  std::string out;
  PutU32(out, circuit.items());
  PutU32(out, circuit.root());
  PutU32(out, static_cast<std::uint32_t>(circuit.consts().size()));
  PutU32(out, static_cast<std::uint32_t>(circuit.prefix_steps().size()));
  PutU64(out, circuit.size());
  PutDoubles(out, circuit.consts());
  PutU32s(out, circuit.prefix_steps());
  // Pad so the arena sits at a 16-byte offset from the payload start; the
  // segment layer 16-aligns payload starts in the file, so the mapped arena
  // lands aligned in memory.
  const std::size_t misaligned = out.size() % kRecordAlign;
  if (misaligned != 0) out.append(kRecordAlign - misaligned, '\0');
  out.append(reinterpret_cast<const char*>(circuit.arena()),
             circuit.size() * sizeof(Circuit::Node));
  return out;
}

std::optional<Circuit> DecodeCircuitPayload(std::string_view payload,
                                            std::shared_ptr<const void> owner) {
  ByteReader reader(payload);
  const std::uint32_t items = reader.U32();
  const std::uint32_t root = reader.U32();
  const std::uint32_t const_count = reader.U32();
  const std::uint32_t prefix_count = reader.U32();
  const std::uint64_t node_count = reader.U64();
  if (!reader.ok() || !CountFits(reader, const_count, 8)) return std::nullopt;
  std::vector<double> consts(const_count);
  reader.Doubles(consts);
  if (!CountFits(reader, prefix_count, 4)) return std::nullopt;
  std::vector<unsigned> prefix_steps(prefix_count);
  reader.U32s(prefix_steps);
  if (!reader.ok()) return std::nullopt;
  std::vector<bool> is_prefix_step;
  for (unsigned step : prefix_steps) {
    if (step >= items) return std::nullopt;
  }
  is_prefix_step.assign(items, false);
  for (unsigned step : prefix_steps) is_prefix_step[step] = true;
  const std::size_t consumed = payload.size() - reader.remaining();
  const std::size_t pad =
      consumed % kRecordAlign == 0 ? 0 : kRecordAlign - consumed % kRecordAlign;
  if (reader.Bytes(pad).size() != pad) return std::nullopt;
  // The node arena must account for exactly the rest of the payload. (The
  // count cap forestalls multiplication overflow on a hostile value.)
  if (node_count == 0 ||
      node_count > kMaxPayloadBytes / sizeof(Circuit::Node) ||
      root >= node_count ||
      reader.remaining() != node_count * sizeof(Circuit::Node)) {
    return std::nullopt;
  }
  const std::string_view arena_bytes =
      reader.Bytes(node_count * sizeof(Circuit::Node));

  // Validate the arena before anything evaluates it: each record must name
  // a known op whose operands exist (topologically: strictly before the
  // node for value references). The segment CRC already rules out bit rot;
  // this rules out well-checksummed records from an incompatible writer.
  const auto* nodes =
      reinterpret_cast<const Circuit::Node*>(arena_bytes.data());
  const bool aligned =
      reinterpret_cast<std::uintptr_t>(nodes) % alignof(Circuit::Node) == 0;
  std::vector<Circuit::Node> copied;
  if (!aligned) {
    // A payload not served from a mapped segment (e.g. an in-memory owned
    // copy) may land the arena anywhere; copy it into owned storage.
    copied.resize(node_count);
    std::memcpy(copied.data(), arena_bytes.data(), arena_bytes.size());
    nodes = copied.data();
  }
  for (std::uint64_t i = 0; i < node_count; ++i) {
    const Circuit::Node node = nodes[i];
    if (static_cast<std::uint8_t>(node.op) >
        static_cast<std::uint8_t>(Op::kPrefixDiff)) {
      return std::nullopt;
    }
    switch (node.op) {
      case Op::kConst:
        if (node.a >= const_count) return std::nullopt;
        break;
      case Op::kLeaf:
        if (node.a >= items || node.b > node.a) return std::nullopt;
        break;
      case Op::kAdd:
      case Op::kMul:
        if (node.a >= i || node.b >= i) return std::nullopt;
        break;
      case Op::kMulAdd:
        if (node.a >= i || node.b >= i || node.c >= i) return std::nullopt;
        break;
      case Op::kPrefixDiff:
        if (node.a >= items || !is_prefix_step[node.a] ||
            node.b > node.a + 1 || node.c > node.b) {
          return std::nullopt;
        }
        break;
    }
  }

  if (!aligned) {
    auto holder =
        std::make_shared<std::vector<Circuit::Node>>(std::move(copied));
    const Circuit::Node* data = holder->data();
    return Circuit::FromBorrowedArena(data,
                                      static_cast<std::size_t>(node_count),
                                      std::move(consts),
                                      std::move(prefix_steps),
                                      static_cast<NodeId>(root), items,
                                      std::move(holder));
  }
  return Circuit::FromBorrowedArena(nodes,
                                    static_cast<std::size_t>(node_count),
                                    std::move(consts), std::move(prefix_steps),
                                    static_cast<NodeId>(root), items,
                                    std::move(owner));
}

// -- kResult ----------------------------------------------------------------

std::string EncodeResultPayload(double probability,
                                const std::optional<infer::Matching>& matching) {
  std::string out;
  PutU8(out, matching.has_value() ? 1 : 0);
  PutDouble(out, probability);
  if (matching.has_value()) {
    PutU32(out, static_cast<std::uint32_t>(matching->size()));
    PutU32s(out, *matching);
  }
  return out;
}

std::optional<DecodedResult> DecodeResultPayload(std::string_view payload) {
  ByteReader reader(payload);
  const bool has_matching = reader.U8() != 0;
  DecodedResult result;
  result.probability = reader.Double();
  if (has_matching) {
    const std::uint32_t n = reader.U32();
    if (!reader.ok() || !CountFits(reader, n, 4)) return std::nullopt;
    infer::Matching matching(n);
    reader.U32s(matching);
    result.top_matching = std::move(matching);
  }
  if (!reader.ok() || reader.remaining() != 0) return std::nullopt;
  return result;
}

}  // namespace ppref::store
