#include "ppref/net/codec.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "ppref/common/bytes.h"
#include "ppref/infer/labeling.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/rim_model.h"

namespace ppref::net {
namespace {

/// Request preamble: id(8) kind(1) flags(1) reserved(2) deadline(8).
constexpr std::size_t kPreambleBytes = 20;

Status Malformed(std::string_view what) {
  return Status::InvalidArgument("malformed request body: " +
                                 std::string(what));
}

/// Appends a standard request body (the layout EncodeRequest documents).
void PutRequest(std::string& out, std::uint64_t id, serve::Request::Kind kind,
                std::uint64_t deadline_ns, std::uint64_t idempotency_key,
                const infer::LabeledRimModel& labeled,
                const infer::LabelPattern& pattern) {
  const rim::RimModel& model = labeled.model();
  const infer::ItemLabeling& labeling = labeled.labeling();
  const std::size_t m = model.size();
  const unsigned nodes = pattern.NodeCount();
  const bool keyed = idempotency_key != 0;
  std::size_t label_words = 0;
  for (unsigned item = 0; item < m; ++item) {
    label_words += 1 + labeling.LabelsOf(item).size();
  }
  std::size_t edge_count = 0;
  for (unsigned from = 0; from < nodes; ++from) {
    edge_count += pattern.Children(from).size();
  }

  out.reserve(out.size() + kPreambleBytes + (keyed ? 8 : 0) + 4 * (1 + m) +
              8 * (m * (m + 1) / 2) + 4 * label_words + 4 * (2 + nodes) +
              8 * edge_count);
  PutU64(out, id);
  PutU8(out, static_cast<std::uint8_t>(kind));
  PutU8(out, keyed ? kRequestFlagIdempotencyKey : 0);
  PutU8(out, 0);
  PutU8(out, 0);
  PutU64(out, deadline_ns);
  if (keyed) PutU64(out, idempotency_key);

  PutU32(out, static_cast<std::uint32_t>(m));
  PutU32s(out, model.reference().order());
  for (unsigned t = 0; t < m; ++t) PutDoubles(out, model.insertion().Row(t));
  for (unsigned item = 0; item < m; ++item) {
    const std::vector<infer::LabelId>& labels = labeling.LabelsOf(item);
    PutU32(out, static_cast<std::uint32_t>(labels.size()));
    PutU32s(out, labels);
  }

  PutU32(out, nodes);
  for (unsigned node = 0; node < nodes; ++node) {
    PutU32(out, pattern.NodeLabel(node));
  }
  PutU32(out, static_cast<std::uint32_t>(edge_count));
  for (unsigned from = 0; from < nodes; ++from) {
    for (unsigned to : pattern.Children(from)) {
      PutU32(out, from);
      PutU32(out, to);
    }
  }
}

/// Appends the u32-length-prefixed standard request body (kind
/// pattern_prob, unkeyed) that sweep, hard and consensus requests wrap, so
/// their decoders can delegate model/pattern validation to DecodeRequest
/// verbatim. The body is written in place and its length back-patched.
void PutBase(std::string& out, std::uint64_t id, std::uint64_t deadline_ns,
             const infer::LabeledRimModel& model,
             const infer::LabelPattern& pattern) {
  const std::size_t length_at = out.size();
  PutU32(out, 0);
  PutRequest(out, id, serve::Request::Kind::kPatternProb, deadline_ns,
             /*idempotency_key=*/0, model, pattern);
  const auto length = static_cast<std::uint32_t>(out.size() - length_at - 4);
  std::memcpy(out.data() + length_at, &length, 4);  // little-endian host
}

/// Reads and validates a wrapped base request; `what` names the wrapper in
/// error messages. The base kind must be pattern_prob.
StatusOr<WireRequest> ReadBase(ByteReader& r, std::string_view what) {
  const std::string_view base = r.Bytes(r.U32());
  if (!r.ok()) {
    return Malformed("truncated " + std::string(what) + " base request");
  }
  StatusOr<WireRequest> decoded = DecodeRequest(base);
  if (!decoded.ok()) return decoded.status();
  if (decoded->kind != serve::Request::Kind::kPatternProb) {
    return Malformed(std::string(what) +
                     " base request kind must be pattern_prob");
  }
  return decoded;
}

/// Every response body opens with
///   u64 id, u8 status_code, u8 flag_a, u8 flag_b, u8 reserved (0),
///   u32 message_len, bytes message;
/// response kinds without flags send them as reserved zeros.
void PutResponseHead(std::string& out, std::uint64_t id, const Status& status,
                     bool flag_a, bool flag_b) {
  PutU64(out, id);
  PutU8(out, static_cast<std::uint8_t>(status.code()));
  PutU8(out, flag_a ? 1 : 0);
  PutU8(out, flag_b ? 1 : 0);
  PutU8(out, 0);
  PutU32(out, static_cast<std::uint32_t>(status.message().size()));
  out.append(status.message());
}

struct ResponseHead {
  std::uint64_t id = 0;
  Status status;
  bool flag_a = false;
  bool flag_b = false;
};

/// Reads a response head. False when truncated, or when the status code,
/// the reserved byte, or a flag byte (above `max_flag`) is out of range.
bool ReadResponseHead(ByteReader& r, std::uint8_t max_flag,
                      ResponseHead* head) {
  head->id = r.U64();
  const std::uint8_t code = r.U8();
  const std::uint8_t flag_a = r.U8();
  const std::uint8_t flag_b = r.U8();
  const std::uint8_t reserved = r.U8();
  const std::string_view message = r.Bytes(r.U32());
  if (!r.ok() || code > static_cast<std::uint8_t>(StatusCode::kInternal) ||
      flag_a > max_flag || flag_b > max_flag || reserved != 0) {
    return false;
  }
  head->status = Status(static_cast<StatusCode>(code), std::string(message));
  head->flag_a = flag_a != 0;
  head->flag_b = flag_b != 0;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Request

std::string EncodeRequest(const WireRequest& request) {
  std::string out;
  PutRequest(out, request.id, request.kind, request.deadline_ns,
             request.idempotency_key, request.model, request.pattern);
  return out;
}

StatusOr<WireRequest> DecodeRequest(std::string_view body) {
  ByteReader r(body);
  const std::uint64_t id = r.U64();
  const std::uint8_t kind = r.U8();
  const std::uint8_t flags = r.U8();
  const std::uint8_t reserved0 = r.U8();
  const std::uint8_t reserved1 = r.U8();
  const std::uint64_t deadline_ns = r.U64();
  if (!r.ok()) return Malformed("truncated preamble");
  if (kind > static_cast<std::uint8_t>(serve::Request::Kind::kTopMatching)) {
    return Malformed("unknown request kind");
  }
  if ((flags & ~kRequestFlagIdempotencyKey) != 0) {
    return Malformed("unknown request flags");
  }
  if (reserved0 != 0 || reserved1 != 0) {
    return Malformed("nonzero reserved bytes");
  }
  std::uint64_t idempotency_key = 0;
  if ((flags & kRequestFlagIdempotencyKey) != 0) {
    idempotency_key = r.U64();
    if (!r.ok()) return Malformed("truncated preamble");
    if (idempotency_key == 0) return Malformed("zero idempotency key");
  }

  // Model: reference ranking. Must be a permutation of 0..m-1 — the Ranking
  // constructor PPREF_CHECKs exactly that, so verify before constructing.
  const std::uint32_t m = r.U32();
  if (!r.ok()) return Malformed("truncated item count");
  if (m == 0 || m > kMaxWireItems) return Malformed("item count out of range");
  std::vector<rim::ItemId> order(m);
  r.U32s(order);
  if (!r.ok()) return Malformed("truncated reference ranking");
  std::vector<bool> seen(m, false);
  for (rim::ItemId item : order) {
    if (item >= m || seen[item]) {
      return Malformed("reference ranking is not a permutation");
    }
    seen[item] = true;
  }

  // Insertion rows: row t has t+1 finite non-negative entries summing to 1
  // within the InsertionFunction tolerance (again, pre-validating the
  // constructor's checks).
  std::vector<std::vector<double>> rows(m);
  for (std::uint32_t t = 0; t < m; ++t) {
    rows[t].resize(t + 1);
    r.Doubles(rows[t]);
    if (!r.ok()) return Malformed("truncated insertion rows");
    double sum = 0.0;
    for (double prob : rows[t]) {
      if (!std::isfinite(prob) || prob < 0.0) {
        return Malformed("insertion probability not in [0, 1]");
      }
      sum += prob;
    }
    if (std::abs(sum - 1.0) > rim::InsertionFunction::kRowSumTolerance) {
      return Malformed("insertion row does not sum to 1");
    }
  }

  // Labeling: per-item label lists, bounded.
  infer::ItemLabeling labeling(m);
  for (std::uint32_t item = 0; item < m; ++item) {
    const std::uint32_t count = r.U32();
    if (!r.ok()) return Malformed("truncated labeling");
    if (count > kMaxWireLabelsPerItem) {
      return Malformed("too many labels on one item");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t label = r.U32();
      if (!r.ok()) return Malformed("truncated labeling");
      labeling.AddLabel(item, label);
    }
  }

  // Pattern: distinct node labels (AddNode aborts on a duplicate), edges
  // over valid node indices without self-loops (AddEdge aborts on both).
  const std::uint32_t node_count = r.U32();
  if (!r.ok()) return Malformed("truncated pattern");
  if (node_count > kMaxWireNodes) return Malformed("too many pattern nodes");
  std::vector<std::uint32_t> node_labels(node_count);
  r.U32s(node_labels);
  if (!r.ok()) return Malformed("truncated pattern");
  infer::LabelPattern pattern;
  for (std::uint32_t node = 0; node < node_count; ++node) {
    for (std::uint32_t prev = 0; prev < node; ++prev) {
      if (node_labels[prev] == node_labels[node]) {
        return Malformed("duplicate pattern node label");
      }
    }
    pattern.AddNode(node_labels[node]);
  }
  const std::uint32_t edge_count = r.U32();
  if (!r.ok()) return Malformed("truncated pattern edges");
  if (edge_count > node_count * node_count) {
    return Malformed("edge count out of range");
  }
  for (std::uint32_t e = 0; e < edge_count; ++e) {
    const std::uint32_t from = r.U32();
    const std::uint32_t to = r.U32();
    if (!r.ok()) return Malformed("truncated pattern edges");
    if (from >= node_count || to >= node_count) {
      return Malformed("edge endpoint out of range");
    }
    if (from == to) return Malformed("self-loop edge");
    pattern.AddEdge(from, to);
  }

  if (r.remaining() != 0) return Malformed("trailing bytes");

  WireRequest request(
      id, static_cast<serve::Request::Kind>(kind), deadline_ns,
      infer::LabeledRimModel(
          rim::RimModel(rim::Ranking(std::move(order)),
                        rim::InsertionFunction(std::move(rows))),
          std::move(labeling)),
      std::move(pattern));
  request.idempotency_key = idempotency_key;
  return request;
}

std::uint64_t PeekIdempotencyKey(std::string_view body) {
  if (body.size() < kPreambleBytes + 8) return 0;
  const auto flags = static_cast<std::uint8_t>(body[9]);
  if ((flags & kRequestFlagIdempotencyKey) == 0) return 0;
  return LoadU64(body.data() + kPreambleBytes);
}

// ---------------------------------------------------------------------------
// Response

std::string EncodeResponse(const WireResponse& response) {
  std::string out;
  PutResponseHead(out, response.id, response.status, response.approximate,
                  response.top_matching.has_value());
  PutDouble(out, response.probability);
  PutDouble(out, response.std_error);
  PutU64(out, response.retry_after_ns);
  if (response.top_matching.has_value()) {
    PutU32(out, static_cast<std::uint32_t>(response.top_matching->size()));
    PutU32s(out, *response.top_matching);
  }
  return out;
}

StatusOr<WireResponse> DecodeResponse(std::string_view body) {
  const Status malformed = Status::InvalidArgument("malformed response body");
  ByteReader r(body);
  ResponseHead head;
  if (!ReadResponseHead(r, 1, &head)) return malformed;
  WireResponse response;
  response.id = head.id;
  response.status = std::move(head.status);
  response.approximate = head.flag_a;
  response.probability = r.Double();
  response.std_error = r.Double();
  response.retry_after_ns = r.U64();
  if (!r.ok()) return malformed;
  if (head.flag_b) {
    const std::uint32_t match_len = r.U32();
    if (!r.ok() || match_len > kMaxWireNodes) return malformed;
    infer::Matching matching(match_len);
    r.U32s(matching);
    if (!r.ok()) return malformed;
    response.top_matching = std::move(matching);
  }
  if (r.remaining() != 0) return malformed;
  return response;
}

// ---------------------------------------------------------------------------
// Sweep request / response

std::string EncodeSweepRequest(const WireSweepRequest& request) {
  std::string out;
  PutBase(out, request.id, request.deadline_ns, request.model,
          request.pattern);
  PutU32(out, static_cast<std::uint32_t>(request.params.size()));
  for (const std::vector<double>& point : request.params) {
    PutU32(out, static_cast<std::uint32_t>(point.size()));
    PutDoubles(out, point);
  }
  return out;
}

StatusOr<WireSweepRequest> DecodeSweepRequest(std::string_view body) {
  ByteReader r(body);
  StatusOr<WireRequest> decoded = ReadBase(r, "sweep");
  if (!decoded.ok()) return decoded.status();
  const unsigned m = decoded->model.model().size();

  const std::uint32_t point_count = r.U32();
  if (!r.ok()) return Malformed("truncated sweep point count");
  if (point_count > kMaxWirePoints) {
    return Malformed("too many sweep points");
  }
  std::vector<std::vector<double>> params;
  params.reserve(point_count);
  for (std::uint32_t p = 0; p < point_count; ++p) {
    const std::uint32_t len = r.U32();
    if (!r.ok()) return Malformed("truncated sweep point");
    if (len != 1 && len != m) {
      return Malformed("sweep point arity must be 1 or m");
    }
    std::vector<double> point(len);
    r.Doubles(point);
    if (!r.ok()) return Malformed("truncated sweep point");
    for (double phi : point) {
      // `!(x > 0 && x <= 1)` rather than the complement so NaN fails too.
      if (!std::isfinite(phi) || !(phi > 0.0 && phi <= 1.0)) {
        return Malformed("sweep dispersion not in (0, 1]");
      }
    }
    params.push_back(std::move(point));
  }
  if (r.remaining() != 0) return Malformed("trailing bytes");

  return WireSweepRequest(decoded->id, decoded->deadline_ns,
                          std::move(decoded->model),
                          std::move(decoded->pattern), std::move(params));
}

std::string EncodeSweepResponse(const WireSweepResponse& response) {
  std::string out;
  PutResponseHead(out, response.id, response.status, false, false);
  PutU32(out, static_cast<std::uint32_t>(response.probabilities.size()));
  PutDoubles(out, response.probabilities);
  return out;
}

StatusOr<WireSweepResponse> DecodeSweepResponse(std::string_view body) {
  const Status malformed =
      Status::InvalidArgument("malformed sweep response body");
  ByteReader r(body);
  ResponseHead head;
  if (!ReadResponseHead(r, 0, &head)) return malformed;
  const std::uint32_t count = r.U32();
  if (!r.ok() || count > kMaxWirePoints) return malformed;
  WireSweepResponse response;
  response.id = head.id;
  response.status = std::move(head.status);
  response.probabilities.resize(count);
  r.Doubles(response.probabilities);
  if (!r.ok() || r.remaining() != 0) return malformed;
  return response;
}

// ---------------------------------------------------------------------------
// Hard request / response

std::string EncodeHardRequest(const WireHardRequest& request) {
  std::string out;
  PutBase(out, request.id, request.deadline_ns, request.model,
          request.pattern);
  PutDouble(out, request.target_half_width);
  return out;
}

StatusOr<WireHardRequest> DecodeHardRequest(std::string_view body) {
  ByteReader r(body);
  StatusOr<WireRequest> decoded = ReadBase(r, "hard");
  if (!decoded.ok()) return decoded.status();
  const double target = r.Double();
  if (!r.ok()) return Malformed("truncated hard target");
  // `!(x >= 0 && x <= 1)` rather than the complement so NaN fails too.
  if (!(target >= 0.0 && target <= 1.0)) {
    return Malformed("hard target not in [0, 1]");
  }
  if (r.remaining() != 0) return Malformed("trailing bytes");

  return WireHardRequest(decoded->id, decoded->deadline_ns, target,
                         std::move(decoded->model),
                         std::move(decoded->pattern));
}

std::string EncodeHardResponse(const WireHardResponse& response) {
  std::string out;
  PutResponseHead(out, response.id, response.status, response.target_met,
                  response.deadline_limited);
  PutDouble(out, response.estimate);
  PutDouble(out, response.std_error);
  PutU64(out, response.n_samples);
  return out;
}

StatusOr<WireHardResponse> DecodeHardResponse(std::string_view body) {
  const Status malformed =
      Status::InvalidArgument("malformed hard response body");
  ByteReader r(body);
  ResponseHead head;
  if (!ReadResponseHead(r, 1, &head)) return malformed;
  WireHardResponse response;
  response.id = head.id;
  response.status = std::move(head.status);
  response.target_met = head.flag_a;
  response.deadline_limited = head.flag_b;
  response.estimate = r.Double();
  response.std_error = r.Double();
  response.n_samples = r.U64();
  if (!r.ok() || r.remaining() != 0) return malformed;
  return response;
}

// ---------------------------------------------------------------------------
// Consensus request / response

std::string EncodeConsensusRequest(const WireConsensusRequest& request) {
  std::string out;
  PutBase(out, request.id, request.deadline_ns, request.model,
          infer::LabelPattern());
  PutU32(out, request.top_k);
  return out;
}

StatusOr<WireConsensusRequest> DecodeConsensusRequest(std::string_view body) {
  ByteReader r(body);
  StatusOr<WireRequest> decoded = ReadBase(r, "consensus");
  if (!decoded.ok()) return decoded.status();
  if (decoded->pattern.NodeCount() != 0) {
    return Malformed("consensus base pattern must be empty");
  }
  const std::uint32_t top_k = r.U32();
  if (!r.ok()) return Malformed("truncated consensus top_k");
  if (top_k == 0 || top_k > kMaxWireItems) {
    return Malformed("consensus top_k out of range");
  }
  if (r.remaining() != 0) return Malformed("trailing bytes");

  return WireConsensusRequest(decoded->id, decoded->deadline_ns, top_k,
                              std::move(decoded->model));
}

std::string EncodeConsensusResponse(const WireConsensusResponse& response) {
  std::string out;
  PutResponseHead(out, response.id, response.status, false, false);
  PutU32(out, static_cast<std::uint32_t>(response.ranking.size()));
  PutU32s(out, response.ranking);
  PutDouble(out, response.mean_footrule);
  PutDouble(out, response.footrule_std_error);
  PutDouble(out, response.mean_kendall);
  PutDouble(out, response.kendall_std_error);
  PutU64(out, response.n_samples);
  return out;
}

StatusOr<WireConsensusResponse> DecodeConsensusResponse(std::string_view body) {
  const Status malformed =
      Status::InvalidArgument("malformed consensus response body");
  ByteReader r(body);
  ResponseHead head;
  if (!ReadResponseHead(r, 0, &head)) return malformed;
  const std::uint32_t ranking_len = r.U32();
  if (!r.ok() || ranking_len > kMaxWireItems) return malformed;
  WireConsensusResponse response;
  response.id = head.id;
  response.status = std::move(head.status);
  response.ranking.resize(ranking_len);
  r.U32s(response.ranking);
  response.mean_footrule = r.Double();
  response.footrule_std_error = r.Double();
  response.mean_kendall = r.Double();
  response.kendall_std_error = r.Double();
  response.n_samples = r.U64();
  if (!r.ok() || r.remaining() != 0) return malformed;
  return response;
}

}  // namespace ppref::net
