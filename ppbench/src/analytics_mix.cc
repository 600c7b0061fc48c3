/// \file analytics_mix.cc
/// \brief Workload `analytics_mix`: φ-sweeps, hard-tier estimates and
/// consensus rankings.
///
/// Half the requests are 16-point φ-sweeps over four hot circuit shapes,
/// one sweep in eight on a never-seen shape (a cold circuit compile). A
/// quarter are `/hard` Monte-Carlo estimates and a quarter consensus top-k
/// requests, each on a dispersion drawn per request so it samples fresh.
/// None of them touches the result cache.
#include <cmath>

#include "ppref/circuit/compile.h"
#include "ppref/infer/internal/dp_plan.h"
#include "ppref/infer/top_prob.h"
#include "ppref/net/codec.h"
#include "ppref/rim/insertion.h"
#include "ppref/serve/fingerprint.h"
#include "ppref/serve/server.h"
#include "workload.h"

namespace ppbench {

namespace {

using namespace ppref;

constexpr unsigned kConnections = 2;
constexpr unsigned kHotShapes = 4;
constexpr unsigned kSweepPoints = 16;
constexpr unsigned kTopK = 5;
/// First request index of the warm-up (a multiple of 8, so +4 is a hard
/// request and +6 a consensus one), far past any timed window.
constexpr std::uint64_t kWarmUpIndex = std::uint64_t{1} << 62;
/// Answers kept for checking, per kind and connection.
constexpr std::size_t kMaxChecked = 12;
/// Sweep points re-derived by a per-point DP, per checked sweep.
constexpr unsigned kCheckedPoints[] = {0, 5, 10, 15};

enum class Kind { kSweep, kHard, kConsensus };

struct MixRequest {
  Kind kind = Kind::kSweep;
  std::vector<unsigned> order;
  std::vector<unsigned> label_of;
  double phi = 0.5;
  std::vector<unsigned> chain;
  std::vector<std::vector<double>> params;

  infer::LabeledRimModel Model() const {
    return MakeModel(order, phi, label_of);
  }
};

class AnalyticsMix final : public Workload {
 public:
  explicit AnalyticsMix(const Env& env) : env_(env) {}

  std::uint64_t MemoryRequests() const override { return 400; }

  std::vector<std::string> DaemonFlags(
      const std::string& store_dir) const override {
    return {"--workers", std::to_string(kWorkers), "--store-dir", store_dir};
  }

  bool Open(int port, const std::string& /*store_dir*/) override {
    for (unsigned c = 0; c < kConnections; ++c) {
      clients_.push_back(ConnectClient(port));
      if (clients_.back() == nullptr) return false;
      answers_.emplace_back();
    }
    // Warm-up: the connections split the hot circuit shapes (one sweep
    // each), then each sends one hard and one consensus request from
    // indices the timed window never uses.
    return OnEachConnection(kConnections, [&](unsigned c) {
      for (unsigned shape = c; shape < kHotShapes; shape += kConnections) {
        Rng rng(Mix(env_.seed, 5100 + shape));
        const MixRequest request = Sweep(rng, shape);
        const net::WireSweepRequest wire(shape + 1, 0, request.Model(),
                                         MakeChain(request.chain),
                                         request.params);
        StatusOr<net::WireSweepResponse> response =
            clients_[c]->CallSweep(wire);
        if (!response.ok() || !response->status.ok()) return false;
      }
      std::uint64_t rtt_ns = 0;
      return Call(c, kWarmUpIndex + 4, &rtt_ns) &&
             Call(c, kWarmUpIndex + 6, &rtt_ns);
    });
  }

  bool Call(unsigned conn, std::uint64_t index,
            std::uint64_t* rtt_ns) override {
    const MixRequest request = Generate(conn, index);
    net::Client& client = *clients_[conn];
    Answers& answers = answers_[conn];
    const std::uint64_t id = index + 1;
    switch (request.kind) {
      case Kind::kSweep: {
        const net::WireSweepRequest wire(id, 0, request.Model(),
                                         MakeChain(request.chain),
                                         request.params);
        const std::uint64_t start = MonotonicNowNs();
        StatusOr<net::WireSweepResponse> response = client.CallSweep(wire);
        *rtt_ns = MonotonicNowNs() - start;
        if (!response.ok() || !response->status.ok() ||
            response->probabilities.size() != request.params.size()) {
          return false;
        }
        if (answers.sweeps.size() < kMaxChecked) {
          answers.sweeps.push_back({index, response->probabilities});
        }
        return true;
      }
      case Kind::kHard: {
        const net::WireHardRequest wire(id, 0, 0.0, request.Model(),
                                        MakeChain(request.chain));
        const std::uint64_t start = MonotonicNowNs();
        StatusOr<net::WireHardResponse> response = client.CallHard(wire);
        *rtt_ns = MonotonicNowNs() - start;
        if (!response.ok() || !response->status.ok()) return false;
        if (answers.hard.size() < kMaxChecked) {
          answers.hard.push_back({index, *response});
        }
        return true;
      }
      case Kind::kConsensus: {
        const net::WireConsensusRequest wire(id, 0, kTopK, request.Model());
        const std::uint64_t start = MonotonicNowNs();
        StatusOr<net::WireConsensusResponse> response =
            client.CallConsensus(wire);
        *rtt_ns = MonotonicNowNs() - start;
        if (!response.ok() || !response->status.ok()) return false;
        if (answers.consensus.size() < kMaxChecked) {
          answers.consensus.push_back({index, *response});
        }
        return true;
      }
    }
    return false;
  }

  std::size_t Verify() override {
    // Hard and consensus answers are replayed on a fresh in-process server
    // with the daemon's default options and must come back byte-equal.
    serve::Server server;
    std::size_t wrong = 0;
    bool planted = !env_.plant_wrong_oracle;
    for (unsigned c = 0; c < kConnections; ++c) {
      for (const auto& [index, probabilities] : answers_[c].sweeps) {
        const MixRequest request = Generate(c, index);
        const infer::LabelPattern pattern = MakeChain(request.chain);
        for (const unsigned point : kCheckedPoints) {
          double oracle = infer::PatternProb(
              MakeModel(request.order, request.params[point][0],
                        request.label_of),
              pattern);
          if (!planted) {
            oracle = FlipLowBit(oracle);
            planted = true;
          }
          wrong += !SameBits(oracle, probabilities[point]);
        }
      }
      for (const auto& [index, answer] : answers_[c].hard) {
        const MixRequest request = Generate(c, index);
        const infer::LabeledRimModel model = request.Model();
        const infer::LabelPattern pattern = MakeChain(request.chain);
        StatusOr<serve::HardEstimate> replay =
            server.HardPatternProb(model, pattern);
        const double exact = infer::PatternProb(model, pattern);
        wrong += !replay.ok() || !SameHard(*replay, answer) ||
                 !WithinFiveSigma(answer, exact);
      }
      for (const auto& [index, answer] : answers_[c].consensus) {
        const MixRequest request = Generate(c, index);
        StatusOr<serve::ConsensusAnswer> replay =
            server.ConsensusTopK(request.Model(), kTopK);
        wrong += !replay.ok() || !SameConsensus(*replay, answer);
      }
    }
    return wrong;
  }

  void ReplayPrepare(const std::string& /*dir*/) override {
    server_ = std::make_unique<serve::Server>();
    for (unsigned shape = 0; shape < kHotShapes; ++shape) {
      Rng rng(Mix(env_.seed, 5100 + shape));
      const MixRequest request = Sweep(rng, shape);
      CompileCircuit(request.Model(), MakeChain(request.chain));
    }
  }

  void ReplayOne(Tracer& tracer, std::uint64_t index) override {
    const MixRequest request = Generate(0, index);
    tracer.set_request(index);
    switch (request.kind) {
      case Kind::kSweep:
        ReplaySweep(tracer, request, index);
        break;
      case Kind::kHard:
        ReplayHard(tracer, request, index);
        break;
      case Kind::kConsensus:
        ReplayConsensus(tracer, request, index);
        break;
    }
  }

  void ReplayMetrics(const Tracer& tracer, LayerMetrics* out) override {
    NetReplayMetrics(tracer, bytes_, out);
    if (tracer.Count("circuit.compile") > 0) {
      (*out)["circuit.compile_ms"] = tracer.MedianUs("circuit.compile") / 1e3;
    }
    (*out)["circuit.nodes_per_circuit"] = circuit_nodes_ / circuits_compiled_;
    if (sweep_points_ > 0) {
      (*out)["circuit.eval_us_per_point"] =
          tracer.TotalNs("circuit.eval") / sweep_points_ / 1e3;
    }
    if (tracer.Count("hard.estimate") > 0) {
      (*out)["hard.estimate_ms"] = tracer.MedianUs("hard.estimate") / 1e3;
      (*out)["hard.worlds_per_estimate"] =
          worlds_ / static_cast<double>(tracer.Count("hard.estimate"));
      (*out)["hard.ns_per_world"] = tracer.TotalNs("hard.estimate") / worlds_;
    }
    if (tracer.Count("hard.consensus") > 0) {
      (*out)["hard.consensus_ms"] = tracer.MedianUs("hard.consensus") / 1e3;
    }
    (*out)["serve.fingerprint_us"] = tracer.MedianUs("serve.fingerprint");
  }

 private:
  struct Answers {
    std::vector<std::pair<std::uint64_t, std::vector<double>>> sweeps;
    std::vector<std::pair<std::uint64_t, net::WireHardResponse>> hard;
    std::vector<std::pair<std::uint64_t, net::WireConsensusResponse>>
        consensus;
  };

  /// A sweep over circuit shape `shape` (m = 16, four items per label, a
  /// 2-node chain); φ grid from `rng`.
  MixRequest Sweep(Rng& rng, std::uint64_t shape) const {
    Rng shape_rng(Mix(env_.seed, 5000 + shape));
    MixRequest request;
    request.kind = Kind::kSweep;
    request.order = Shuffled(16, shape_rng);
    request.label_of = BlockLabels(16, 4);
    const unsigned a = static_cast<unsigned>(shape_rng.NextIndex(4));
    request.chain = {a, (a + 1 + static_cast<unsigned>(
                                     shape_rng.NextIndex(3))) % 4};
    request.phi = 0.5;
    for (unsigned i = 0; i < kSweepPoints; ++i) {
      request.params.push_back({0.05 + 0.95 * rng.NextUnit()});
    }
    return request;
  }

  MixRequest Generate(unsigned conn, std::uint64_t index) const {
    Rng rng(Mix(Mix(env_.seed, 6000 + conn), index));
    // The mix repeats every 8 requests (4 sweeps, 2 hard, 2 consensus), and
    // every 16 sweeps exactly 2 land on a shape no other request uses, so
    // each run does the same share of each kind of work.
    const std::uint64_t slot = index % 8;
    if (slot < 4) {
      const bool cold = slot == 0 && index % 16 == 0;
      const std::uint64_t shape =
          cold ? Mix(Mix(7000 + conn, index), 1) | (std::uint64_t{1} << 63)
               : rng.NextIndex(kHotShapes);
      return Sweep(rng, shape);
    }
    MixRequest request;
    request.kind = slot < 6 ? Kind::kHard : Kind::kConsensus;
    request.order = Shuffled(16, rng);
    // Two items per label and a 3-node chain keep the hard pattern's
    // probability away from 0 and 1, so estimates need thousands of worlds.
    request.label_of = BlockLabels(16, 2);
    const std::vector<unsigned> labels = Shuffled(8, rng);
    request.chain = {labels[0], labels[1], labels[2]};
    request.phi = 0.3 + 0.65 * rng.NextUnit();
    return request;
  }

  static bool SameHard(const serve::HardEstimate& a,
                       const net::WireHardResponse& b) {
    return SameBits(a.estimate, b.estimate) &&
           SameBits(a.std_error, b.std_error) && a.n_samples == b.n_samples &&
           a.target_met == b.target_met &&
           a.deadline_limited == b.deadline_limited;
  }

  /// |estimate - exact| within 5 standard errors of a mean of n_samples
  /// Bernoulli draws with the exact probability.
  static bool WithinFiveSigma(const net::WireHardResponse& answer,
                              double exact) {
    if (answer.n_samples == 0) return false;
    const double sigma = std::sqrt(exact * (1.0 - exact) /
                                   static_cast<double>(answer.n_samples));
    return std::abs(answer.estimate - exact) <= 5.0 * sigma + 1e-12;
  }

  static bool SameConsensus(const serve::ConsensusAnswer& a,
                            const net::WireConsensusResponse& b) {
    return a.ranking == b.ranking &&
           SameBits(a.mean_footrule, b.mean_footrule) &&
           SameBits(a.footrule_std_error, b.footrule_std_error) &&
           SameBits(a.mean_kendall, b.mean_kendall) &&
           SameBits(a.kendall_std_error, b.kendall_std_error) &&
           a.n_samples == b.n_samples;
  }

  const circuit::Circuit& CompileCircuit(const infer::LabeledRimModel& model,
                                         const infer::LabelPattern& pattern) {
    const std::uint64_t key = serve::CircuitKey(model, pattern);
    auto it = circuits_.find(key);
    if (it == circuits_.end()) {
      const infer::internal::DpPlan plan(model, pattern, {});
      it = circuits_.emplace(key, circuit::CompilePatternProb(plan)).first;
      circuits_compiled_ += 1;
      circuit_nodes_ += static_cast<double>(it->second.size());
    }
    return it->second;
  }

  void ReplaySweep(Tracer& tracer, const MixRequest& request,
                   std::uint64_t index) {
    const net::WireSweepRequest wire(index + 1, 0, request.Model(),
                                     MakeChain(request.chain), request.params);
    std::string request_bytes;
    std::string response_bytes;
    {
      const Span root(tracer, "request");
      request_bytes = Timed(tracer, "net.encode_request",
                            [&] { return net::EncodeSweepRequest(wire); });
      StatusOr<net::WireSweepRequest> decoded =
          Timed(tracer, "net.decode_request",
                [&] { return net::DecodeSweepRequest(request_bytes); });
      const std::uint64_t key = Timed(tracer, "serve.fingerprint", [&] {
        return serve::CircuitKey(decoded->model, decoded->pattern);
      });
      const circuit::Circuit* circuit = nullptr;
      if (const auto it = circuits_.find(key); it != circuits_.end()) {
        circuit = &it->second;
      } else {
        const Span span(tracer, "circuit.compile");
        circuit = &CompileCircuit(decoded->model, decoded->pattern);
      }
      net::WireSweepResponse response;
      response.id = decoded->id;
      {
        const Span span(tracer, "circuit.eval");
        // One blocked pass over every binding, as the server evaluates a
        // sweep of up to 8 * kEvalLanes points.
        const unsigned m = decoded->model.size();
        std::vector<rim::InsertionFunction> bindings;
        for (const std::vector<double>& point : decoded->params) {
          bindings.push_back(rim::InsertionFunction::Mallows(m, point[0]));
        }
        circuit::EvalScratch scratch;
        response.probabilities.resize(bindings.size());
        circuit->EvaluateMany(bindings.data(), bindings.size(), scratch,
                              response.probabilities.data());
      }
      if (tracer.enabled()) sweep_points_ += decoded->params.size();
      response_bytes = Timed(tracer, "net.encode_response", [&] {
        return net::EncodeSweepResponse(response);
      });
      Timed(tracer, "net.decode_response",
            [&] { return net::DecodeSweepResponse(response_bytes); });
    }
    bytes_.Add(tracer, request_bytes.size(), response_bytes.size());
  }

  void ReplayHard(Tracer& tracer, const MixRequest& request,
                  std::uint64_t index) {
    const net::WireHardRequest wire(index + 1, 0, 0.0, request.Model(),
                                    MakeChain(request.chain));
    std::string request_bytes;
    std::string response_bytes;
    {
      const Span root(tracer, "request");
      request_bytes = Timed(tracer, "net.encode_request",
                            [&] { return net::EncodeHardRequest(wire); });
      StatusOr<net::WireHardRequest> decoded =
          Timed(tracer, "net.decode_request",
                [&] { return net::DecodeHardRequest(request_bytes); });
      StatusOr<serve::HardEstimate> estimate =
          Timed(tracer, "hard.estimate", [&] {
            return server_->HardPatternProb(decoded->model, decoded->pattern,
                                            decoded->target_half_width);
          });
      net::WireHardResponse response;
      response.id = decoded->id;
      if (estimate.ok()) {
        response.estimate = estimate->estimate;
        response.std_error = estimate->std_error;
        response.n_samples = estimate->n_samples;
        if (tracer.enabled()) {
          worlds_ += static_cast<double>(estimate->n_samples);
        }
      }
      response_bytes = Timed(tracer, "net.encode_response",
                             [&] { return net::EncodeHardResponse(response); });
      Timed(tracer, "net.decode_response",
            [&] { return net::DecodeHardResponse(response_bytes); });
    }
    bytes_.Add(tracer, request_bytes.size(), response_bytes.size());
  }

  void ReplayConsensus(Tracer& tracer, const MixRequest& request,
                       std::uint64_t index) {
    const net::WireConsensusRequest wire(index + 1, 0, kTopK, request.Model());
    std::string request_bytes;
    std::string response_bytes;
    {
      const Span root(tracer, "request");
      request_bytes = Timed(tracer, "net.encode_request", [&] {
        return net::EncodeConsensusRequest(wire);
      });
      StatusOr<net::WireConsensusRequest> decoded =
          Timed(tracer, "net.decode_request",
                [&] { return net::DecodeConsensusRequest(request_bytes); });
      StatusOr<serve::ConsensusAnswer> answer =
          Timed(tracer, "hard.consensus", [&] {
            return server_->ConsensusTopK(decoded->model, decoded->top_k);
          });
      net::WireConsensusResponse response;
      response.id = decoded->id;
      if (answer.ok()) {
        response.ranking = answer->ranking;
        response.mean_footrule = answer->mean_footrule;
        response.mean_kendall = answer->mean_kendall;
        response.n_samples = answer->n_samples;
      }
      response_bytes = Timed(tracer, "net.encode_response", [&] {
        return net::EncodeConsensusResponse(response);
      });
      Timed(tracer, "net.decode_response",
            [&] { return net::DecodeConsensusResponse(response_bytes); });
    }
    bytes_.Add(tracer, request_bytes.size(), response_bytes.size());
  }

  Env env_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::vector<Answers> answers_;

  std::unique_ptr<serve::Server> server_;
  std::map<std::uint64_t, circuit::Circuit> circuits_;
  double circuits_compiled_ = 0;
  double circuit_nodes_ = 0;
  double sweep_points_ = 0;
  double worlds_ = 0;
  WireBytes bytes_;
};

}  // namespace

std::unique_ptr<Workload> MakeAnalyticsMix(const Env& env) {
  return std::make_unique<AnalyticsMix>(env);
}

}  // namespace ppbench
