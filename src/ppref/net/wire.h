/// \file wire.h
/// \brief `ppref::net` — the owned request/response values that cross the
/// wire.
///
/// `serve::Request` *borrows* its model and pattern (the in-process embedder
/// already owns them); a network peer has nothing to borrow from, so the
/// wire layer's unit of exchange is a `WireRequest` that **owns** a full
/// `LabeledRimModel` and `LabelPattern` reconstructed from bytes. The codec
/// (codec.h) round-trips every double by bit pattern, which is what makes
/// the end-to-end bit-identity contract possible: the model a daemon rebuilds
/// from a client's bytes is byte-identical to the client's, so the exact DP
/// answer is too.
///
/// `id` is an opaque client-chosen correlation token echoed in the response.
/// The daemon may answer pipelined requests of one connection out of order
/// (they fan out over the worker pool); the id is how a pipelining client
/// re-associates answers. `net::Client::Call` is strictly request/response
/// and checks the echo.

#ifndef PPREF_NET_WIRE_H_
#define PPREF_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ppref/common/status.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/matching.h"
#include "ppref/infer/pattern.h"
#include "ppref/rim/ranking.h"
#include "ppref/serve/server.h"

namespace ppref::net {

/// One query, self-contained: everything `serve::Server::Evaluate` needs,
/// owned by this value.
struct WireRequest {
  WireRequest(std::uint64_t id, serve::Request::Kind kind,
              std::uint64_t deadline_ns, infer::LabeledRimModel model,
              infer::LabelPattern pattern)
      : id(id),
        kind(kind),
        deadline_ns(deadline_ns),
        model(std::move(model)),
        pattern(std::move(pattern)) {}

  std::uint64_t id = 0;
  serve::Request::Kind kind = serve::Request::Kind::kPatternProb;
  /// Per-request deadline in nanoseconds, measured from daemon dispatch;
  /// 0 = the server's default.
  std::uint64_t deadline_ns = 0;
  /// Client-chosen idempotency key; 0 = unkeyed. All attempts (retries,
  /// hedges) of one logical request must carry the same key *and* the same
  /// `id`: the daemon single-flights and replays by (key, id), so retries
  /// coalesce onto the first execution and replayed bytes echo the right
  /// correlation id. See net/dedup.h for the lifecycle.
  std::uint64_t idempotency_key = 0;
  infer::LabeledRimModel model;
  infer::LabelPattern pattern;

  /// A serve request borrowing this value's model and pattern; valid only
  /// while `*this` is alive.
  serve::Request ToRequest() const {
    serve::Request request;
    request.kind = kind;
    request.model = &model;
    request.pattern = &pattern;
    request.control.deadline_ns = deadline_ns;
    return request;
  }
};

/// One parameter sweep: the query shape of a `WireRequest` (model, pattern)
/// plus a grid of dispersion vectors to evaluate it at. Each entry of
/// `params` is {φ} (Mallows over the model's m items) or {φ_1..φ_m}
/// (generalized Mallows); the model's own insertion function seeds the
/// circuit compile but every answer is for the re-bound point.
struct WireSweepRequest {
  WireSweepRequest(std::uint64_t id, std::uint64_t deadline_ns,
                   infer::LabeledRimModel model, infer::LabelPattern pattern,
                   std::vector<std::vector<double>> params)
      : id(id),
        deadline_ns(deadline_ns),
        model(std::move(model)),
        pattern(std::move(pattern)),
        params(std::move(params)) {}

  std::uint64_t id = 0;
  /// Deadline for the whole sweep, from daemon dispatch; 0 = server default.
  std::uint64_t deadline_ns = 0;
  infer::LabeledRimModel model;
  infer::LabelPattern pattern;
  std::vector<std::vector<double>> params;
};

/// The sweep answer: one probability per parameter vector, in request
/// order, or a single non-OK status for the whole sweep.
struct WireSweepResponse {
  std::uint64_t id = 0;
  Status status;
  std::vector<double> probabilities;

  static WireSweepResponse From(std::uint64_t id,
                                StatusOr<std::vector<double>> answers) {
    WireSweepResponse wire;
    wire.id = id;
    if (!answers.ok()) {
      wire.status = answers.status();
      return wire;
    }
    wire.probabilities = std::move(answers).value();
    return wire;
  }
};

/// One hard-tier query: the shape of a pattern-probability `WireRequest`
/// plus a requested confidence-interval half-width. The daemon answers it
/// with the adaptive Monte-Carlo estimator instead of the exact DP — the
/// tier for models too large to scan exactly.
struct WireHardRequest {
  WireHardRequest(std::uint64_t id, std::uint64_t deadline_ns,
                  double target_half_width, infer::LabeledRimModel model,
                  infer::LabelPattern pattern)
      : id(id),
        deadline_ns(deadline_ns),
        target_half_width(target_half_width),
        model(std::move(model)),
        pattern(std::move(pattern)) {}

  std::uint64_t id = 0;
  /// Deadline from daemon dispatch; 0 = server default. Besides stopping the
  /// run, the deadline *value* coarsens the effective precision target, so a
  /// tight budget yields an honest wide-error answer instead of an error.
  std::uint64_t deadline_ns = 0;
  /// Requested 95%-CI half-width in [0, 1]; 0 = the server's default target.
  double target_half_width = 0.0;
  infer::LabeledRimModel model;
  infer::LabelPattern pattern;
};

/// The hard-tier answer: a point estimate with its standard error and the
/// sampling disposition (how many worlds, and why sampling stopped).
struct WireHardResponse {
  std::uint64_t id = 0;
  Status status;
  double estimate = 0.0;
  double std_error = 0.0;
  std::uint64_t n_samples = 0;
  /// The precision target was reached before the sample cap.
  bool target_met = false;
  /// The deadline budget expired mid-run; the answer is honest but coarser
  /// than asked, and the server never caches it.
  bool deadline_limited = false;

  static WireHardResponse From(std::uint64_t id,
                               const StatusOr<serve::HardEstimate>& answer) {
    WireHardResponse wire;
    wire.id = id;
    if (!answer.ok()) {
      wire.status = answer.status();
      return wire;
    }
    wire.estimate = answer->estimate;
    wire.std_error = answer->std_error;
    wire.n_samples = answer->n_samples;
    wire.target_met = answer->target_met;
    wire.deadline_limited = answer->deadline_limited;
    return wire;
  }
};

/// One consensus top-k query: a model and how many items of the consensus
/// ranking to return. No pattern — the query is about the model itself.
struct WireConsensusRequest {
  WireConsensusRequest(std::uint64_t id, std::uint64_t deadline_ns,
                       std::uint32_t top_k, infer::LabeledRimModel model)
      : id(id),
        deadline_ns(deadline_ns),
        top_k(top_k),
        model(std::move(model)) {}

  std::uint64_t id = 0;
  std::uint64_t deadline_ns = 0;
  /// Prefix length of the consensus ranking to return (>= 1; clamped to m).
  std::uint32_t top_k = 0;
  infer::LabeledRimModel model;
};

/// The consensus answer: the top-k prefix of the footrule-optimal consensus
/// ranking plus the estimated mean distances from a random world to it.
struct WireConsensusResponse {
  std::uint64_t id = 0;
  Status status;
  std::vector<rim::ItemId> ranking;
  double mean_footrule = 0.0;
  double footrule_std_error = 0.0;
  double mean_kendall = 0.0;
  double kendall_std_error = 0.0;
  std::uint64_t n_samples = 0;

  static WireConsensusResponse From(std::uint64_t id,
                                    StatusOr<serve::ConsensusAnswer> answer) {
    WireConsensusResponse wire;
    wire.id = id;
    if (!answer.ok()) {
      wire.status = answer.status();
      return wire;
    }
    serve::ConsensusAnswer value = std::move(answer).value();
    wire.ranking = std::move(value.ranking);
    wire.mean_footrule = value.mean_footrule;
    wire.footrule_std_error = value.footrule_std_error;
    wire.mean_kendall = value.mean_kendall;
    wire.kendall_std_error = value.kendall_std_error;
    wire.n_samples = value.n_samples;
    return wire;
  }
};

/// One answer: `serve::Response` plus the echoed request id.
struct WireResponse {
  std::uint64_t id = 0;
  Status status;
  double probability = 0.0;
  std::optional<infer::Matching> top_matching;
  bool approximate = false;
  double std_error = 0.0;
  std::uint64_t retry_after_ns = 0;

  static WireResponse From(std::uint64_t id, const serve::Response& response) {
    WireResponse wire;
    wire.id = id;
    wire.status = response.status;
    wire.probability = response.probability;
    wire.top_matching = response.top_matching;
    wire.approximate = response.approximate;
    wire.std_error = response.std_error;
    wire.retry_after_ns = response.retry_after_ns;
    return wire;
  }
};

}  // namespace ppref::net

#endif  // PPREF_NET_WIRE_H_
