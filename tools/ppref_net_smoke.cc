/// \file ppref_net_smoke.cc
/// \brief End-to-end smoke check against a running `ppref_served`:
/// health-check, binary ping, one binary query verified bit-identical
/// against local inference, the same query over HTTP/JSON, one HTTP
/// parameter sweep (each point checked against a fresh DP at that
/// dispersion), one hard-tier adaptive estimate and one consensus top-k
/// (each replayed byte-equal), the sweep, hard and consensus queries again
/// over the binary protocol (each answer bit-identical to its HTTP one),
/// and a /metrics scrape. Exits 0 iff every step passed — check.sh's
/// daemon stage and any post-deploy sanity script run exactly this.
///
/// Usage:
///   ppref_net_smoke --port P [--host H] [--expect-store-hits]
///
/// `--expect-store-hits` additionally asserts that the daemon's /metrics
/// report at least one persistent-store hit — the check a warm-restart
/// smoke runs against a daemon restarted on an existing --store-dir (the
/// queries above are then answered from disk, not recomputed).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ppref/infer/top_prob.h"
#include "ppref/net/client.h"
#include "ppref/net/http.h"
#include "ppref/net/json.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/rim_model.h"
#include "ppref/serve/workload.h"

namespace {

using namespace ppref;

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  bool expect_store_hits = false;
};

bool ParseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--expect-store-hits") {
      options.expect_store_hits = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    if (flag == "--host") {
      options.host = argv[++i];
    } else if (flag == "--port") {
      options.port = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return options.port > 0;
}

int Fail(const char* step, const std::string& detail) {
  std::fprintf(stderr, "ppref_net_smoke: %s: %s\n", step, detail.c_str());
  return 1;
}

/// Renders the pool's pair 0 as a /query JSON document, rows spelled out as
/// %.17g so the daemon rebuilds the exact bits.
std::string QueryJson(const infer::LabeledRimModel& model,
                      const infer::LabelPattern& pattern) {
  char scratch[64];
  std::string json = "{\"id\": 42, \"kind\": \"pattern_prob\", \"model\": {";
  const rim::RimModel& rim = model.model();
  json += "\"reference\": [";
  for (unsigned p = 0; p < rim.size(); ++p) {
    if (p != 0) json += ", ";
    json += std::to_string(rim.reference().At(p));
  }
  json += "], \"insertion\": {\"rows\": [";
  for (unsigned t = 0; t < rim.size(); ++t) {
    if (t != 0) json += ", ";
    json += "[";
    const std::vector<double>& row = rim.insertion().Row(t);
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j != 0) json += ", ";
      std::snprintf(scratch, sizeof(scratch), "%.17g", row[j]);
      json += scratch;
    }
    json += "]";
  }
  json += "]}, \"labels\": [";
  for (unsigned item = 0; item < model.labeling().item_count(); ++item) {
    if (item != 0) json += ", ";
    json += "[";
    const auto& labels = model.labeling().LabelsOf(item);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i != 0) json += ", ";
      json += std::to_string(labels[i]);
    }
    json += "]";
  }
  json += "]}, \"pattern\": {\"nodes\": [";
  for (unsigned node = 0; node < pattern.NodeCount(); ++node) {
    if (node != 0) json += ", ";
    json += std::to_string(pattern.NodeLabel(node));
  }
  json += "], \"edges\": [";
  bool first = true;
  for (unsigned node = 0; node < pattern.NodeCount(); ++node) {
    for (unsigned child : pattern.Children(node)) {
      if (!first) json += ", ";
      first = false;
      json += "[" + std::to_string(node) + ", " + std::to_string(child) + "]";
    }
  }
  json += "]}}";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, options)) {
    std::fprintf(stderr, "usage: %s --port P [--host H]\n", argv[0]);
    return 2;
  }

  // 1. Liveness.
  StatusOr<net::HttpResult> health =
      net::HttpFetch(options.host, options.port, "GET", "/healthz");
  if (!health.ok()) return Fail("healthz", health.status().ToString());
  if (health->status_code != 200) {
    return Fail("healthz", "status " + std::to_string(health->status_code));
  }

  // 2. Binary ping.
  StatusOr<net::Client> connected =
      net::Client::Connect(options.host, options.port);
  if (!connected.ok()) return Fail("connect", connected.status().ToString());
  net::Client client = std::move(connected).value();
  Status pinged = client.Ping();
  if (!pinged.ok()) return Fail("ping", pinged.ToString());

  // 3. One binary query, checked bit-identical against local inference.
  const serve::SyntheticWorkload workload = serve::MakeSyntheticWorkload(4);
  const double expected =
      infer::PatternProb(workload.models[0], workload.patterns[0]);
  net::WireRequest request(7, serve::Request::Kind::kPatternProb, 0,
                           workload.models[0], workload.patterns[0]);
  StatusOr<net::WireResponse> response = client.Call(request);
  if (!response.ok()) return Fail("binary query", response.status().ToString());
  if (!response->status.ok()) {
    return Fail("binary query", response->status.ToString());
  }
  if (response->probability != expected) {
    return Fail("binary query", "answer not bit-identical to local inference");
  }

  // 4. The same query over HTTP/JSON; %.17g round-trips the exact bits.
  StatusOr<net::HttpResult> http = net::HttpFetch(
      options.host, options.port, "POST", "/query",
      QueryJson(workload.models[0], workload.patterns[0]));
  if (!http.ok()) return Fail("http query", http.status().ToString());
  if (http->status_code != 200) {
    return Fail("http query",
                "status " + std::to_string(http->status_code) + ": " +
                    http->body);
  }
  const std::size_t at = http->body.find("\"probability\":");
  if (at == std::string::npos) {
    return Fail("http query", "no probability in " + http->body);
  }
  const double http_probability =
      std::strtod(http->body.c_str() + at + std::strlen("\"probability\":"),
                  nullptr);
  if (http_probability != expected) {
    return Fail("http query", "JSON answer not bit-identical");
  }

  // 5. One HTTP parameter sweep: the same (structure, pattern) answered at
  // several dispersions from one cached circuit, each point checked against
  // a fresh DP with the model re-bound to that φ.
  const std::vector<double> grid = {0.25, 0.5, 0.75, 1.0};
  std::string sweep_json =
      QueryJson(workload.models[0], workload.patterns[0]);
  sweep_json.pop_back();  // trailing '}' — reopen to append the grid
  sweep_json += ", \"params\": [";
  for (std::size_t k = 0; k < grid.size(); ++k) {
    if (k != 0) sweep_json += ", ";
    char scratch[32];
    std::snprintf(scratch, sizeof(scratch), "%.17g", grid[k]);
    sweep_json += scratch;
  }
  sweep_json += "]}";
  StatusOr<net::HttpResult> sweep = net::HttpFetch(
      options.host, options.port, "POST", "/sweep", sweep_json);
  if (!sweep.ok()) return Fail("http sweep", sweep.status().ToString());
  if (sweep->status_code != 200) {
    return Fail("http sweep", "status " + std::to_string(sweep->status_code) +
                                  ": " + sweep->body);
  }
  const std::size_t probs_at = sweep->body.find("\"probabilities\":[");
  if (probs_at == std::string::npos) {
    return Fail("http sweep", "no probabilities in " + sweep->body);
  }
  const char* cursor =
      sweep->body.c_str() + probs_at + std::strlen("\"probabilities\":[");
  const infer::LabeledRimModel& sweep_model = workload.models[0];
  for (std::size_t k = 0; k < grid.size(); ++k) {
    char* after = nullptr;
    const double got = std::strtod(cursor, &after);
    if (after == cursor) return Fail("http sweep", "short probability list");
    cursor = *after == ',' ? after + 1 : after;
    const infer::LabeledRimModel rebound(
        rim::RimModel(sweep_model.model().reference(),
                      rim::InsertionFunction::Mallows(sweep_model.size(),
                                                      grid[k])),
        sweep_model.labeling());
    if (got != infer::PatternProb(rebound, workload.patterns[0])) {
      return Fail("http sweep", "point not bit-identical to a fresh DP");
    }
  }

  // 6. One hard-tier adaptive estimate over HTTP, issued twice: the answer
  // must be a sane probability and the replay byte-equal (sampling is seeded
  // by the model alone, and the second call is served from the hard cache).
  std::string hard_json = QueryJson(workload.models[0], workload.patterns[0]);
  hard_json.pop_back();  // trailing '}' — reopen to append the CI target
  hard_json += ", \"target\": 0.02}";
  StatusOr<net::HttpResult> hard =
      net::HttpFetch(options.host, options.port, "POST", "/hard", hard_json);
  if (!hard.ok()) return Fail("http hard", hard.status().ToString());
  if (hard->status_code != 200) {
    return Fail("http hard", "status " + std::to_string(hard->status_code) +
                                 ": " + hard->body);
  }
  const std::size_t est_at = hard->body.find("\"estimate\":");
  if (est_at == std::string::npos) {
    return Fail("http hard", "no estimate in " + hard->body);
  }
  const double estimate = std::strtod(
      hard->body.c_str() + est_at + std::strlen("\"estimate\":"), nullptr);
  if (!(estimate >= 0.0 && estimate <= 1.0)) {
    return Fail("http hard", "estimate outside [0, 1]: " + hard->body);
  }
  StatusOr<net::HttpResult> hard_replay =
      net::HttpFetch(options.host, options.port, "POST", "/hard", hard_json);
  if (!hard_replay.ok()) {
    return Fail("http hard replay", hard_replay.status().ToString());
  }
  if (hard_replay->status_code != 200 || hard_replay->body != hard->body) {
    return Fail("http hard replay", "answer not byte-equal");
  }

  // 7. One consensus top-k query over HTTP (no pattern — the query ranks the
  // model's own items), also replayed byte-equal.
  std::string consensus_json =
      QueryJson(workload.models[0], infer::LabelPattern());
  consensus_json.pop_back();  // trailing '}' — reopen to append top_k
  consensus_json += ", \"top_k\": 2}";
  StatusOr<net::HttpResult> consensus = net::HttpFetch(
      options.host, options.port, "POST", "/consensus", consensus_json);
  if (!consensus.ok()) return Fail("http consensus", consensus.status().ToString());
  if (consensus->status_code != 200) {
    return Fail("http consensus",
                "status " + std::to_string(consensus->status_code) + ": " +
                    consensus->body);
  }
  if (consensus->body.find("\"ranking\":[") == std::string::npos) {
    return Fail("http consensus", "no ranking in " + consensus->body);
  }
  StatusOr<net::HttpResult> consensus_replay = net::HttpFetch(
      options.host, options.port, "POST", "/consensus", consensus_json);
  if (!consensus_replay.ok()) {
    return Fail("http consensus replay", consensus_replay.status().ToString());
  }
  if (consensus_replay->status_code != 200 ||
      consensus_replay->body != consensus->body) {
    return Fail("http consensus replay", "answer not byte-equal");
  }

  // 8. The sweep, hard and consensus queries again over the binary
  // protocol, each parsed from the JSON body sent above: every answer,
  // rendered as JSON, must be its HTTP answer byte for byte (doubles are
  // spelled %.17g, so byte equality is bit equality).
  const auto parse = [](const std::string& json) {
    StatusOr<net::JsonValue> document = net::ParseJson(json);
    return document.ok() ? *document : net::JsonValue();
  };
  StatusOr<net::WireSweepRequest> sweep_request =
      net::SweepRequestFromJson(parse(sweep_json));
  if (!sweep_request.ok()) {
    return Fail("binary sweep", sweep_request.status().ToString());
  }
  StatusOr<net::WireSweepResponse> binary_sweep =
      client.CallSweep(*sweep_request);
  if (!binary_sweep.ok()) {
    return Fail("binary sweep", binary_sweep.status().ToString());
  }
  if (net::JsonFromWireSweepResponse(*binary_sweep) != sweep->body) {
    return Fail("binary sweep", "answer not bit-identical to the HTTP one");
  }
  StatusOr<net::WireHardRequest> hard_request =
      net::HardRequestFromJson(parse(hard_json));
  if (!hard_request.ok()) {
    return Fail("binary hard", hard_request.status().ToString());
  }
  StatusOr<net::WireHardResponse> binary_hard = client.CallHard(*hard_request);
  if (!binary_hard.ok()) {
    return Fail("binary hard", binary_hard.status().ToString());
  }
  if (net::JsonFromWireHardResponse(*binary_hard) != hard->body) {
    return Fail("binary hard", "answer not bit-identical to the HTTP one");
  }
  StatusOr<net::WireConsensusRequest> consensus_request =
      net::ConsensusRequestFromJson(parse(consensus_json));
  if (!consensus_request.ok()) {
    return Fail("binary consensus", consensus_request.status().ToString());
  }
  StatusOr<net::WireConsensusResponse> binary_consensus =
      client.CallConsensus(*consensus_request);
  if (!binary_consensus.ok()) {
    return Fail("binary consensus", binary_consensus.status().ToString());
  }
  if (net::JsonFromWireConsensusResponse(*binary_consensus) !=
      consensus->body) {
    return Fail("binary consensus",
                "answer not bit-identical to the HTTP one");
  }

  // 9. Metrics exposition includes both serve- and net-layer instruments.
  StatusOr<net::HttpResult> metrics =
      net::HttpFetch(options.host, options.port, "GET", "/metrics");
  if (!metrics.ok()) return Fail("metrics", metrics.status().ToString());
  if (metrics->status_code != 200 ||
      metrics->body.find("ppref_serve_requests_total") == std::string::npos ||
      metrics->body.find("ppref_net_requests_binary_total") ==
          std::string::npos ||
      metrics->body.find("ppref_net_requests_sweep_total") ==
          std::string::npos ||
      metrics->body.find("ppref_net_requests_hard_total") ==
          std::string::npos ||
      metrics->body.find("ppref_net_requests_consensus_total") ==
          std::string::npos ||
      metrics->body.find("ppref_hard_requests_total") == std::string::npos) {
    return Fail("metrics", "missing expected instruments");
  }

  // 10. Warm-restart assertion: the queries above must have been answered
  // from the persistent store, not recomputed.
  if (options.expect_store_hits) {
    // The sample line, not the "# HELP" comment naming the same metric.
    const char* name = "\nppref_serve_store_hits_total ";
    const std::size_t hits_at = metrics->body.find(name);
    if (hits_at == std::string::npos) {
      return Fail("store hits", "no store instruments in /metrics");
    }
    const double hits = std::strtod(
        metrics->body.c_str() + hits_at + std::strlen(name), nullptr);
    if (hits < 1.0) {
      return Fail("store hits",
                  "expected warm-from-disk answers, saw 0 store hits");
    }
  }

  std::printf("ppref_net_smoke: healthz, ping, binary query (bit-identical), "
              "json query (bit-identical), json sweep (bit-identical), "
              "json hard (byte-equal replay), json consensus (byte-equal "
              "replay), binary sweep/hard/consensus (bit-identical to "
              "json), metrics%s — all ok\n",
              options.expect_store_hits ? ", store hits" : "");
  return 0;
}
