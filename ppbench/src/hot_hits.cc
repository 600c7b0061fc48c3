/// \file hot_hits.cc
/// \brief Workload `hot_hits`: warm result-cache hits over the wire.
///
/// A pool of 32 (model, pattern) pairs, m alternating 32 and 64, fits the
/// daemon's result cache. Open() evaluates every pair once (cold DP, store
/// write-behind); every timed request after that is a cache hit, so the
/// round trip is wire encode/decode, fingerprinting and the cache probe.
#include <cstdio>

#include "ppref/infer/top_prob.h"
#include "ppref/net/codec.h"
#include "ppref/serve/fingerprint.h"
#include "ppref/serve/server.h"
#include "workload.h"

namespace ppbench {

namespace {

using namespace ppref;

constexpr unsigned kPairs = 32;
constexpr unsigned kConnections = 2;

class HotHits final : public Workload {
 public:
  explicit HotHits(const Env& env) : env_(env) {
    for (unsigned i = 0; i < kPairs; ++i) {
      Rng rng(Mix(env.seed, 1000 + i));
      const unsigned m = i % 2 == 0 ? 32 : 64;
      // 4 items per label at m = 32 and 2 at m = 64 keep the cold warm-up
      // DP of the whole pool well under a second.
      const unsigned per_label = m == 32 ? 4 : 2;
      const unsigned labels = m / per_label;
      const unsigned a = static_cast<unsigned>(rng.NextIndex(labels));
      unsigned b = static_cast<unsigned>(rng.NextIndex(labels - 1));
      if (b >= a) ++b;
      const double phi = 0.5 + 0.4 * rng.NextUnit();
      models_.push_back(
          MakeModel(Shuffled(m, rng), phi, BlockLabels(m, per_label)));
      patterns_.push_back(MakeChain({a, b}));
    }
  }

  std::uint64_t MemoryRequests() const override { return 5000; }

  std::vector<std::string> DaemonFlags(
      const std::string& store_dir) const override {
    return {"--workers", std::to_string(kWorkers), "--store-dir", store_dir};
  }

  bool Open(int port, const std::string& /*store_dir*/) override {
    for (unsigned c = 0; c < kConnections; ++c) {
      clients_.push_back(ConnectClient(port));
      if (clients_.back() == nullptr) return false;
      requests_.emplace_back();
      for (unsigned i = 0; i < kPairs; ++i) {
        requests_[c].emplace_back(i + 1, serve::Request::Kind::kPatternProb,
                                  0, models_[i], patterns_[i]);
      }
      answers_.emplace_back();
    }
    // Warm-up: the connections split the pool, so the daemon's workers
    // compile and run the cold DPs side by side.
    return OnEachConnection(kConnections, [&](unsigned c) {
      for (unsigned i = c; i < kPairs; i += kConnections) {
        StatusOr<net::WireResponse> response =
            clients_[c]->Call(requests_[c][i]);
        if (!response.ok() || !response->status.ok()) return false;
      }
      return true;
    });
  }

  bool Call(unsigned conn, std::uint64_t index,
            std::uint64_t* rtt_ns) override {
    const unsigned pair = PairOf(conn, index);
    net::WireRequest& request = requests_[conn][pair];
    request.id = index + 1;
    const std::uint64_t start = MonotonicNowNs();
    StatusOr<net::WireResponse> response = clients_[conn]->Call(request);
    *rtt_ns = MonotonicNowNs() - start;
    if (!response.ok() || !response->status.ok()) return false;
    answers_[conn].push_back({pair, response->probability});
    return true;
  }

  std::size_t Verify() override {
    std::vector<double> oracle(kPairs);
    for (unsigned i = 0; i < kPairs; ++i) {
      oracle[i] = infer::PatternProb(models_[i], patterns_[i]);
    }
    if (env_.plant_wrong_oracle) oracle[0] = FlipLowBit(oracle[0]);
    std::size_t wrong = 0;
    for (const auto& answers : answers_) {
      for (const Answer& answer : answers) {
        wrong += !SameBits(answer.probability, oracle[answer.pair]);
      }
    }
    return wrong;
  }

  void ReplayPrepare(const std::string& /*dir*/) override {
    server_ = std::make_unique<serve::Server>();
    for (unsigned i = 0; i < kPairs; ++i) {
      wire_.emplace_back(i + 1, serve::Request::Kind::kPatternProb, 0,
                         models_[i], patterns_[i]);
      server_->Evaluate(wire_.back().ToRequest());
    }
  }

  void ReplayOne(Tracer& tracer, std::uint64_t index) override {
    const unsigned pair = PairOf(0, index);
    tracer.set_request(index);
    std::string request_bytes;
    std::string response_bytes;
    StatusOr<net::WireRequest> decoded = Status::Internal("unset");
    {
      const Span root(tracer, "request");
      request_bytes = Timed(tracer, "net.encode_request",
                            [&] { return net::EncodeRequest(wire_[pair]); });
      decoded = Timed(tracer, "net.decode_request",
                      [&] { return net::DecodeRequest(request_bytes); });
      const serve::Response response = Timed(
          tracer, "serve.evaluate", [&] {
            return server_->Evaluate(decoded->ToRequest());
          });
      response_bytes = Timed(tracer, "net.encode_response", [&] {
        return net::EncodeResponse(
            net::WireResponse::From(decoded->id, response));
      });
      Timed(tracer, "net.decode_response",
            [&] { return net::DecodeResponse(response_bytes); });
    }
    // Off the blocking path: the fingerprint the server computes inside
    // Evaluate, timed on its own.
    Timed(tracer, "serve.fingerprint",
          [&] { return serve::FingerprintLabeledModel(decoded->model); });
    bytes_.Add(tracer, request_bytes.size(), response_bytes.size());
  }

  void ReplayMetrics(const Tracer& tracer, LayerMetrics* out) override {
    NetReplayMetrics(tracer, bytes_, out);
    (*out)["serve.fingerprint_us"] = tracer.MedianUs("serve.fingerprint");
    (*out)["serve.evaluate_hit_us"] = tracer.MedianUs("serve.evaluate");
  }

 private:
  struct Answer {
    unsigned pair;
    double probability;
  };

  unsigned PairOf(unsigned conn, std::uint64_t index) const {
    return static_cast<unsigned>(Mix(Mix(env_.seed, 2000 + conn), index) %
                                 kPairs);
  }

  Env env_;
  std::vector<infer::LabeledRimModel> models_;
  std::vector<infer::LabelPattern> patterns_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::vector<std::vector<net::WireRequest>> requests_;
  std::vector<std::vector<Answer>> answers_;

  std::unique_ptr<serve::Server> server_;
  std::vector<net::WireRequest> wire_;
  WireBytes bytes_;
};

}  // namespace

std::unique_ptr<Workload> MakeHotHits(const Env& env) {
  return std::make_unique<HotHits>(env);
}

}  // namespace ppbench
