/// \file cold_exact.cc
/// \brief Workload `cold_exact`: a distinct model on every request.
///
/// Every request draws its own reference ranking and dispersion (m 16..24,
/// four items per label, a 2-node chain; every fourth request asks for the
/// top matching), so it misses the plan and result caches, compiles a plan,
/// runs the DP scan and writes plan and answer behind to the store.
#include "ppref/common/hash.h"
#include "ppref/infer/internal/dp_plan.h"
#include "ppref/infer/top_prob.h"
#include "ppref/net/codec.h"
#include "ppref/obs/metrics.h"
#include "ppref/serve/fingerprint.h"
#include "ppref/store/codec.h"
#include "ppref/store/store.h"
#include "workload.h"

namespace ppbench {

namespace {

using namespace ppref;

constexpr unsigned kConnections = 2;
constexpr std::uint64_t kWarmUp = 16;
/// First request index of the warm-up, far past any timed window.
constexpr std::uint64_t kWarmUpIndex = std::uint64_t{1} << 62;
/// One request in kSampleEvery is checked against the oracle, at most
/// kMaxChecked of them.
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::size_t kMaxChecked = 400;
/// The replay flushes its store every kFlushEvery requests.
constexpr std::uint64_t kFlushEvery = 16;

struct ColdRequest {
  infer::LabeledRimModel model;
  infer::LabelPattern pattern;
  serve::Request::Kind kind;
};

class ColdExact final : public Workload {
 public:
  explicit ColdExact(const Env& env) : env_(env) {}

  std::uint64_t MemoryRequests() const override { return 1000; }

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
    // Warm-up: kWarmUp requests per connection, from indices the timed
    // window never uses, so the timed requests meet no first-touch costs.
    return OnEachConnection(kConnections, [&](unsigned c) {
      for (std::uint64_t i = 0; i < kWarmUp; ++i) {
        std::uint64_t rtt_ns = 0;
        if (!Call(c, kWarmUpIndex + i, &rtt_ns)) return false;
      }
      return true;
    });
  }

  bool Call(unsigned conn, std::uint64_t index,
            std::uint64_t* rtt_ns) override {
    ColdRequest request = Generate(conn, index);
    const net::WireRequest wire(index + 1, request.kind, 0,
                                std::move(request.model),
                                std::move(request.pattern));
    const std::uint64_t start = MonotonicNowNs();
    StatusOr<net::WireResponse> response = clients_[conn]->Call(wire);
    *rtt_ns = MonotonicNowNs() - start;
    if (!response.ok() || !response->status.ok()) return false;
    if (Sampled(conn, index) && answers_[conn].size() < kMaxChecked) {
      answers_[conn].push_back(
          {index, response->probability, response->top_matching});
    }
    return true;
  }

  std::size_t Verify() override {
    std::size_t wrong = 0;
    bool planted = !env_.plant_wrong_oracle;
    for (unsigned c = 0; c < kConnections; ++c) {
      for (const Answer& answer : answers_[c]) {
        const ColdRequest request = Generate(c, answer.index);
        double probability = 0.0;
        std::optional<infer::Matching> matching;
        if (request.kind == serve::Request::Kind::kTopMatching) {
          const auto top =
              infer::MostProbableTopMatching(request.model, request.pattern);
          if (top.has_value()) {
            matching = top->first;
            probability = top->second;
          }
        } else {
          probability = infer::PatternProb(request.model, request.pattern);
        }
        if (!planted) {
          probability = FlipLowBit(probability);
          planted = true;
        }
        wrong += !SameBits(probability, answer.probability) ||
                 matching != answer.top_matching;
      }
    }
    return wrong;
  }

  void ReplayPrepare(const std::string& dir) override {
    store::StoreOptions options;
    options.dir = dir + "/replay-store";
    RemoveTree(options.dir);
    StatusOr<std::unique_ptr<store::Store>> opened =
        store::Store::Open(std::move(options));
    if (opened.ok()) store_ = std::move(opened).value();
  }

  void ReplayOne(Tracer& tracer, std::uint64_t index) override {
    ColdRequest request = Generate(0, index);
    const net::WireRequest wire(index + 1, request.kind, 0,
                                std::move(request.model),
                                std::move(request.pattern));
    obs::Counter& states = obs::MetricsRegistry::Default().GetCounter(
        "ppref_infer_dp_states_total");
    tracer.set_request(index);
    std::string request_bytes;
    std::string response_bytes;
    {
      const Span root(tracer, "request");
      request_bytes = Timed(tracer, "net.encode_request",
                            [&] { return net::EncodeRequest(wire); });
      StatusOr<net::WireRequest> decoded = Timed(
          tracer, "net.decode_request",
          [&] { return net::DecodeRequest(request_bytes); });
      const infer::LabeledRimModel& model = decoded->model;
      const infer::LabelPattern& pattern = decoded->pattern;
      const std::uint64_t plan_key = Timed(tracer, "serve.fingerprint", [&] {
        return serve::PlanKey(model, pattern, {});
      });
      const infer::internal::DpPlan plan =
          Timed(tracer, "infer.plan_compile", [&] {
            return infer::internal::DpPlan(model, pattern, {});
          });
      const std::uint64_t states_before = states.Value();
      net::WireResponse response;
      response.id = decoded->id;
      {
        const Span span(tracer, "infer.dp_execute");
        if (decoded->kind == serve::Request::Kind::kTopMatching) {
          const auto top = infer::MostProbableTopMatchingWithPlan(plan);
          if (top.has_value()) {
            response.top_matching = top->first;
            response.probability = top->second;
          }
        } else {
          response.probability = infer::PatternProbWithPlan(plan);
        }
      }
      if (tracer.enabled()) {
        dp_states_ += static_cast<double>(states.Value() - states_before);
      }
      if (store_ != nullptr) {
        const Span span(tracer, "store.put");
        store_->Put(store::RecordKind::kPlan, plan_key,
                    store::EncodePlanPayload(model, pattern, {}, plan));
        store_->Put(store::RecordKind::kResult,
                    HashCombine(plan_key,
                                static_cast<std::uint64_t>(decoded->kind)),
                    store::EncodeResultPayload(response.probability,
                                               response.top_matching));
      }
      response_bytes = Timed(tracer, "net.encode_response",
                             [&] { return net::EncodeResponse(response); });
      Timed(tracer, "net.decode_response",
            [&] { return net::DecodeResponse(response_bytes); });
    }
    // Off the blocking path: the daemon's store flushes in the background.
    if (store_ != nullptr && index > 0 && index % kFlushEvery == 0) {
      Timed(tracer, "store.flush", [&] { return store_->Flush(); });
    }
    bytes_.Add(tracer, request_bytes.size(), response_bytes.size());
  }

  void ReplayMetrics(const Tracer& tracer, LayerMetrics* out) override {
    NetReplayMetrics(tracer, bytes_, out);
    (*out)["infer.plan_compile_us"] = tracer.MedianUs("infer.plan_compile");
    (*out)["infer.dp_execute_us"] = tracer.MedianUs("infer.dp_execute");
    if (dp_states_ > 0) {
      (*out)["infer.ns_per_state"] =
          tracer.TotalNs("infer.dp_execute") / dp_states_;
    }
    (*out)["store.put_us"] = tracer.MedianUs("store.put");
    if (tracer.Count("store.flush") > 0) {
      (*out)["store.flush_ms"] = tracer.MedianUs("store.flush") / 1e3;
    }
  }

 private:
  struct Answer {
    std::uint64_t index;
    double probability;
    std::optional<infer::Matching> top_matching;
  };

  ColdRequest Generate(unsigned conn, std::uint64_t index) const {
    Rng rng(Mix(Mix(env_.seed, 3000 + conn), index));
    const unsigned m = 16 + static_cast<unsigned>(rng.NextIndex(9));
    const unsigned labels = (m + 3) / 4;
    const unsigned a = static_cast<unsigned>(rng.NextIndex(labels));
    unsigned b = static_cast<unsigned>(rng.NextIndex(labels - 1));
    if (b >= a) ++b;
    const double phi = 0.2 + 0.75 * rng.NextUnit();
    std::vector<unsigned> order = Shuffled(m, rng);
    return {MakeModel(order, phi, BlockLabels(m, 4)), MakeChain({a, b}),
            index % 4 == 3 ? serve::Request::Kind::kTopMatching
                           : serve::Request::Kind::kPatternProb};
  }

  bool Sampled(unsigned conn, std::uint64_t index) const {
    return Mix(Mix(env_.seed, 4000 + conn), index) % kSampleEvery == 0;
  }

  Env env_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::vector<std::vector<Answer>> answers_;

  std::unique_ptr<store::Store> store_;
  double dp_states_ = 0;
  WireBytes bytes_;
};

}  // namespace

std::unique_ptr<Workload> MakeColdExact(const Env& env) {
  return std::make_unique<ColdExact>(env);
}

}  // namespace ppbench
