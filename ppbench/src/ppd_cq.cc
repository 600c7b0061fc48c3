/// \file ppd_cq.cc
/// \brief Workload `ppd_cq`: itemwise Boolean CQs over a polling MAL-PPD,
/// in process — the paper's own query surface (Thm 4.4).
///
/// 500 voter sessions over 8 candidates share 250 Mallows models (session
/// v uses model v mod 250), so half of every reduced batch dedups. Sixteen
/// CQ texts differ in the party and sex of the two candidates; their
/// 16 x 250 distinct session requests outnumber the server's result cache
/// of 2048. The server is backed by a store, which set-up populates by
/// evaluating every CQ once, so a result-cache miss is served from disk.
#include "ppref/ppd/evaluator.h"
#include "ppref/ppd/reduction.h"
#include "ppref/query/classify.h"
#include "ppref/query/parser.h"
#include "ppref/store/store.h"
#include "workload.h"

namespace ppbench {

namespace {

using namespace ppref;

constexpr unsigned kCandidates = 8;
constexpr unsigned kSessions = 500;
constexpr unsigned kModels = 250;
constexpr unsigned kQueries = 16;
/// Closed-loop callers, each a thread issuing one CQ at a time. One: with
/// two callers sharing the server's threads, runs of the same seed gave
/// latency medians from 11 to 16 ms.
constexpr unsigned kCallers = 1;

serve::ServerOptions Options(store::Store* store) {
  serve::ServerOptions options;
  options.threads = kWorkers;
  options.result_cache_capacity = 2048;
  options.store = store;
  return options;
}

class PpdCq final : public Workload {
 public:
  explicit PpdCq(const Env& env) : env_(env), ppd_(db::ElectionSchema()) {
    std::vector<db::Value> names;
    for (unsigned c = 0; c < kCandidates; ++c) {
      names.emplace_back("cand" + std::to_string(c));
      ppd_.AddFact("Candidates",
                   {names.back(), c % 2 == 0 ? "D" : "R",
                    (c / 2) % 2 == 0 ? "M" : "F", c % 3 == 0 ? "BS" : "JD"});
    }
    std::vector<ppd::SessionModel> pool;
    for (unsigned p = 0; p < kModels; ++p) {
      Rng rng(Mix(env.seed, 8000 + p));
      std::vector<db::Value> reference;
      for (const unsigned i : Shuffled(kCandidates, rng)) {
        reference.push_back(names[i]);
      }
      pool.push_back(
          ppd::SessionModel::Mallows(reference, 0.3 + 0.6 * rng.NextUnit()));
    }
    for (unsigned v = 0; v < kSessions; ++v) {
      const db::Value voter("voter" + std::to_string(v));
      ppd_.AddFact("Voters", {voter, v % 2 == 0 ? "BS" : "JD",
                              v % 3 == 0 ? "F" : "M",
                              static_cast<std::int64_t>(20 + v % 50)});
      ppd_.AddSession("Polls", {voter, "Oct-5"}, pool[v % kModels]);
    }
    Rng rng(Mix(env.seed, 9000));
    order_ = Shuffled(kQueries, rng);
    const char* classes[][2] = {{"D", "M"}, {"D", "F"}, {"R", "M"}, {"R", "F"}};
    for (const auto& left : classes) {
      for (const auto& right : classes) {
        texts_.push_back(std::string("Q() :- Polls(v, _; l; r), ") +
                         "Candidates(l, '" + left[0] + "', '" + left[1] +
                         "', _), Candidates(r, '" + right[0] + "', '" +
                         right[1] + "', _)");
        queries_.push_back(query::ParseQuery(texts_.back(), ppd_.schema()));
      }
    }
  }

  std::uint64_t MemoryRequests() const override { return 100; }

  std::vector<std::string> DaemonFlags(
      const std::string& /*store_dir*/) const override {
    return {};
  }
  unsigned Connections() const override { return kCallers; }

  bool Open(int /*port*/, const std::string& store_dir) override {
    store::StoreOptions options;
    options.dir = store_dir;
    StatusOr<std::unique_ptr<store::Store>> opened =
        store::Store::Open(std::move(options));
    if (!opened.ok()) return false;
    store_ = std::move(opened).value();
    server_ = std::make_unique<serve::Server>(Options(store_.get()));
    for (const query::ConjunctiveQuery& query : queries_) {
      ppd::EvaluateBoolean(ppd_, query, *server_);
    }
    return true;
  }

  bool Call(unsigned conn, std::uint64_t index,
            std::uint64_t* rtt_ns) override {
    const unsigned q = QueryOf(conn, index);
    const std::uint64_t start = MonotonicNowNs();
    const double confidence = ppd::EvaluateBoolean(ppd_, queries_[q], *server_);
    *rtt_ns = MonotonicNowNs() - start;
    answers_[conn].push_back({q, confidence});
    return true;
  }

  std::size_t Verify() override {
    std::vector<double> oracle(kQueries);
    std::vector<bool> needed(kQueries, false);
    for (const auto& answers : answers_) {
      for (const Answer& answer : answers) needed[answer.query] = true;
    }
    for (unsigned q = 0; q < kQueries; ++q) {
      if (needed[q]) oracle[q] = ppd::EvaluateBoolean(ppd_, queries_[q]);
    }
    if (env_.plant_wrong_oracle && !answers_[0].empty()) {
      const unsigned q = answers_[0].front().query;
      oracle[q] = FlipLowBit(oracle[q]);
    }
    std::size_t wrong = 0;
    for (const auto& answers : answers_) {
      for (const Answer& answer : answers) {
        wrong += !SameBits(answer.confidence, oracle[answer.query]);
      }
    }
    return wrong;
  }

  bool ScrapeInProcess(Scrape* out) override {
    return server_ != nullptr && ParseScrape(server_->ScrapeMetricsJson(), out);
  }

  void Close() override {
    server_.reset();
    store_.reset();
  }

  void ReplayPrepare(const std::string& dir) override {
    store::StoreOptions options;
    options.dir = dir + "/replay-store-ppd";
    RemoveTree(options.dir);
    StatusOr<std::unique_ptr<store::Store>> opened =
        store::Store::Open(std::move(options));
    if (opened.ok()) replay_store_ = std::move(opened).value();
    replay_server_ =
        std::make_unique<serve::Server>(Options(replay_store_.get()));
    for (const query::ConjunctiveQuery& query : queries_) {
      ppd::EvaluateBoolean(ppd_, query, *replay_server_);
    }
  }

  void ReplayOne(Tracer& tracer, std::uint64_t index) override {
    const std::string& text = texts_[QueryOf(index % kCallers, index)];
    serve::Server& server = *replay_server_;
    tracer.set_request(index);
    const std::uint64_t deduped_before = server.Snapshot().batch_deduped;
    std::size_t sessions = 0;
    std::size_t batch_size = 0;
    {
      const Span root(tracer, "request");
      const query::ConjunctiveQuery query = Timed(
          tracer, "query.parse",
          [&] { return query::ParseQuery(text, ppd_.schema()); });
      Timed(tracer, "query.classify", [&] { return query::Classify(query); });
      const std::vector<ppd::SessionReduction> reductions = Timed(
          tracer, "ppd.reduce",
          [&] { return ppd::ReduceItemwise(ppd_, query); });
      sessions = reductions.size();
      // The batch ppd::EvaluateBoolean(ppd, query, server) sends.
      std::vector<infer::LabeledRimModel> models;
      std::vector<serve::Request> batch;
      {
        const Span span(tracer, "ppd.build_batch");
        models.reserve(reductions.size());
        for (const ppd::SessionReduction& reduction : reductions) {
          if (!reduction.satisfiable || reduction.reflexive_preference) {
            continue;
          }
          models.emplace_back(reduction.model->model(), reduction.labeling);
          serve::Request request;
          request.model = &models.back();
          request.pattern = &reduction.pattern;
          batch.push_back(request);
        }
      }
      batch_size = batch.size();
      const std::vector<serve::Response> responses = Timed(
          tracer, "serve.evaluate_batch",
          [&] { return server.EvaluateBatch(batch); });
      Timed(tracer, "ppd.combine", [&] {
        double none_matches = 1.0;
        for (const serve::Response& response : responses) {
          none_matches *= 1.0 - response.probability;
        }
        return 1.0 - none_matches;
      });
    }
    if (tracer.enabled()) {
      queries_replayed_ += 1;
      sessions_ += static_cast<double>(sessions);
      unique_requests_ += static_cast<double>(
          batch_size - (server.Snapshot().batch_deduped - deduped_before));
    }
  }

  void ReplayMetrics(const Tracer& tracer, LayerMetrics* out) override {
    (*out)["query.parse_us"] = tracer.MedianUs("query.parse");
    (*out)["query.classify_us"] = tracer.MedianUs("query.classify");
    (*out)["ppd.reduce_us"] = tracer.MedianUs("ppd.reduce");
    if (queries_replayed_ > 0) {
      (*out)["ppd.sessions_per_query"] = sessions_ / queries_replayed_;
      (*out)["ppd.unique_requests_per_query"] =
          unique_requests_ / queries_replayed_;
    }
  }

 private:
  struct Answer {
    unsigned query;
    double confidence;
  };

  /// The CQs run in one seeded order, split between the callers, each
  /// cycling through its share over and over: a CQ's 250 session requests
  /// were last seen 15 CQs (3750 requests) earlier, past the result cache's
  /// reach, so every CQ meets the same cache state.
  unsigned QueryOf(unsigned caller, std::uint64_t index) const {
    constexpr unsigned kShare = kQueries / kCallers;
    return order_[caller * kShare + index % kShare];
  }

  Env env_;
  ppd::RimPpd ppd_;
  std::vector<std::string> texts_;
  std::vector<query::ConjunctiveQuery> queries_;
  std::vector<unsigned> order_;
  std::unique_ptr<store::Store> store_;
  std::unique_ptr<serve::Server> server_;
  std::vector<Answer> answers_[kCallers];

  std::unique_ptr<store::Store> replay_store_;
  std::unique_ptr<serve::Server> replay_server_;
  double queries_replayed_ = 0;
  double sessions_ = 0;
  double unique_requests_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakePpdCq(const Env& env) {
  return std::make_unique<PpdCq>(env);
}

}  // namespace ppbench
