#include "ppref/serve/server.h"

#include <algorithm>
#include <exception>
#include <unordered_map>

#include "ppref/circuit/circuit.h"
#include "ppref/circuit/compile.h"
#include "ppref/common/check.h"
#include "ppref/common/clock.h"
#include "ppref/common/fault_injection.h"
#include "ppref/common/hash.h"
#include "ppref/common/parallel.h"
#include "ppref/hard/consensus.h"
#include "ppref/hard/estimator.h"
#include "ppref/hard/world_pool.h"
#include "ppref/infer/internal/dp_plan.h"
#include "ppref/infer/matching.h"
#include "ppref/infer/monte_carlo.h"
#include "ppref/infer/top_prob.h"
#include "ppref/obs/export.h"
#include "ppref/serve/fingerprint.h"
#include "ppref/store/codec.h"
#include "ppref/store/store.h"

namespace ppref::serve {
namespace {

// Result-key domain tags: one per request kind, mixed on top of the plan
// key so the two answers about one (model, pattern) never collide. 0x5053
// named the retired min/max kind and stays unused.
// kKeyMcSeed salts the degradation sampler's seed so the fallback stream
// is decorrelated from the result key itself while staying a pure function
// of it (repeat the request, get the identical approximate answer).
enum : std::uint64_t {
  kKeyPatternProb = 0x5051ull,
  kKeyTopMatching = 0x5052ull,
  kKeyMcSeed = 0x5054ull,
  kKeySweep = 0x5055ull,
  kKeyHard = 0x5056ull,
  kKeyConsensus = 0x5057ull,
};

/// The hard tier's deadline → precision mapping: a tight deadline buys a
/// deterministically coarser answer. A pure function of the deadline
/// *value* (never the clock), so repeating the request reproduces the
/// identical estimate. 0 = no floor.
double DeadlineTargetFloor(std::uint64_t deadline_ns) {
  if (deadline_ns == 0) return 0.0;
  if (deadline_ns < 1'000'000) return 0.05;     // < 1ms
  if (deadline_ns < 10'000'000) return 0.02;    // < 10ms
  if (deadline_ns < 100'000'000) return 0.01;   // < 100ms
  return 0.0;
}

const std::vector<infer::LabelId> kNoTracked;

/// Sentinel slot for requests that never reach the dedup table (shed or
/// invalid): they carry their own terminal response.
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

std::uint64_t StageIdx(obs::Stage stage) {
  return static_cast<unsigned>(stage);
}

}  // namespace

/// A compiled plan together with owned copies of its borrowed inputs.
/// Never moved after construction: `plan` holds pointers to the `model`
/// and `pattern` members, which is why cache values are shared_ptrs to
/// in-place-constructed entries.
struct Server::CachedPlan {
  infer::LabeledRimModel model;
  infer::LabelPattern pattern;
  std::vector<infer::LabelId> tracked;
  infer::internal::DpPlan plan;

  CachedPlan(const infer::LabeledRimModel& model_in,
             const infer::LabelPattern& pattern_in,
             const std::vector<infer::LabelId>& tracked_in)
      : model(model_in),
        pattern(pattern_in),
        tracked(tracked_in),
        plan(model, pattern, tracked) {}

  /// Restores from a decoded store record: the owned members are moved into
  /// place first (their addresses are stable from here on), then the plan is
  /// rebuilt against them — `DpPlan::FromDerived` borrows model and pattern
  /// exactly like the compiling constructor. When the derived bytes do not
  /// match the decoded inputs (format drift), the plan is compiled fresh
  /// from them instead; `restored` reports which path ran.
  CachedPlan(store::DecodedPlan decoded, bool& restored)
      : model(std::move(decoded.model)),
        pattern(std::move(decoded.pattern)),
        tracked(std::move(decoded.tracked)),
        plan(Rebuild(model, pattern, tracked, decoded.derived, restored)) {}

  CachedPlan(const CachedPlan&) = delete;
  CachedPlan& operator=(const CachedPlan&) = delete;

 private:
  static infer::internal::DpPlan Rebuild(
      const infer::LabeledRimModel& model, const infer::LabelPattern& pattern,
      const std::vector<infer::LabelId>& tracked, std::string_view derived,
      bool& restored) {
    if (auto plan =
            infer::internal::DpPlan::FromDerived(model, pattern, tracked,
                                                 derived)) {
      restored = true;
      return *std::move(plan);
    }
    restored = false;
    return infer::internal::DpPlan(model, pattern, tracked);
  }
};

/// A compiled arithmetic circuit, cached by (model structure, labeling,
/// pattern) — never by Π. Unlike `CachedPlan`, a circuit borrows nothing:
/// its leaves reference Π(t, j) symbolically and are re-bound per
/// evaluation, which is the whole point of caching it.
struct Server::CachedCircuit {
  circuit::Circuit circuit;

  explicit CachedCircuit(circuit::Circuit circuit_in)
      : circuit(std::move(circuit_in)) {}

  CachedCircuit(const CachedCircuit&) = delete;
  CachedCircuit& operator=(const CachedCircuit&) = delete;
};

/// A memoized answer. `top_matching` is engaged only for kTopMatching
/// requests whose best candidate has positive probability (plus the empty
/// pattern's empty matching).
struct Server::CachedResult {
  double probability = 0.0;
  std::optional<infer::Matching> top_matching;
};

/// A memoized hard-tier answer. The key's domain tag decides which half is
/// meaningful: adaptive estimates fill the scalar fields, consensus entries
/// fill `ranking` (full length m — truncation to k happens per response)
/// and the distance statistics. Only answers that are exact functions of
/// the seed are ever inserted, so `deadline_limited` has no field here.
struct Server::CachedHard {
  double estimate = 0.0;
  double std_error = 0.0;
  std::uint64_t n_samples = 0;
  bool target_met = false;
  std::vector<rim::ItemId> ranking;
  double mean_footrule = 0.0;
  double footrule_std_error = 0.0;
  double mean_kendall = 0.0;
  double kendall_std_error = 0.0;
};

/// The terminal disposition of one guarded computation: a status, the
/// answer (exact or approximate), and whether the answer may be published
/// to the result cache (only exact kOk answers are).
struct Server::Outcome {
  Status status;
  CachedResult result;
  bool approximate = false;
  double std_error = 0.0;
  bool cache_ok = false;
};

/// The server's registry-backed instruments. Counters are the `ServerStats`
/// surface (always on, one relaxed add per event — the same cost as the
/// plain atomics they replaced); gauges are refreshed at scrape time;
/// histograms are recorded only under `ServerOptions::latency_histograms`.
struct Server::Instruments {
  // ServerStats counters.
  obs::Counter& requests;
  obs::Counter& batches;
  obs::Counter& batch_deduped;
  obs::Counter& sweep_requests;
  obs::Counter& sweep_points;
  obs::Counter& circuit_compiles;
  obs::Counter& compile_ns;
  obs::Counter& execute_ns;
  obs::Counter& circuit_compile_ns;
  obs::Counter& circuit_eval_ns;
  obs::Counter& shed;
  obs::Counter& invalid;
  obs::Counter& deadline_exceeded;
  obs::Counter& cancelled;
  obs::Counter& degraded;
  obs::Counter& internal_errors;

  // Hard-query tier.
  obs::Counter& hard_requests;
  obs::Counter& hard_batches;
  obs::Counter& hard_samples;
  obs::Counter& hard_target_met;
  obs::Counter& hard_deadline_limited;
  obs::Counter& consensus_requests;

  // Persistent-store counters (all stay zero without a configured store).
  obs::Counter& store_hits;
  obs::Counter& store_misses;
  obs::Counter& store_corrupt;
  obs::Counter& store_load_ns;
  obs::Counter& store_writes;

  // Scrape-time gauges, synced from their sources by SyncScrapeGauges.
  obs::Gauge& in_flight;
  obs::Gauge& in_flight_peak;
  obs::Gauge& plan_cache_hits;
  obs::Gauge& plan_cache_misses;
  obs::Gauge& plan_cache_insertions;
  obs::Gauge& plan_cache_evictions;
  obs::Gauge& result_cache_hits;
  obs::Gauge& result_cache_misses;
  obs::Gauge& result_cache_insertions;
  obs::Gauge& result_cache_evictions;
  obs::Gauge& circuit_cache_hits;
  obs::Gauge& circuit_cache_misses;
  obs::Gauge& circuit_cache_insertions;
  obs::Gauge& circuit_cache_evictions;
  obs::Gauge& hard_cache_hits;
  obs::Gauge& hard_cache_misses;
  obs::Gauge& hard_cache_insertions;
  obs::Gauge& hard_cache_evictions;
  obs::Gauge& traces_published;
  obs::Gauge& store_records;
  obs::Gauge& store_segments;
  obs::Gauge& store_mapped_bytes;
  obs::Gauge& store_disk_bytes;
  obs::Gauge& store_last_flush_age_ns;

  // Latency histograms (nanoseconds).
  obs::Histogram& request_ns;
  obs::Histogram& batch_ns;
  obs::Histogram& admission_ns;
  obs::Histogram& dedup_fold_ns;
  obs::Histogram& queue_ns;
  obs::Histogram& plan_compile_ns;
  obs::Histogram& dp_execute_ns;
  obs::Histogram& mc_fallback_ns;
  obs::Histogram& scatter_ns;
  obs::Histogram& circuit_compile_hist_ns;
  obs::Histogram& circuit_point_ns;
  obs::Histogram& hard_sample_ns;
  obs::Histogram& consensus_ns;

  explicit Instruments(obs::MetricsRegistry& r)
      : requests(r.GetCounter("ppref_serve_requests_total",
                              "Requests accepted, via any entry point")),
        batches(r.GetCounter("ppref_serve_batches_total",
                             "Batches accepted via EvaluateBatch")),
        batch_deduped(r.GetCounter(
            "ppref_serve_batch_deduped_total",
            "Requests answered by sharing a duplicate within their batch")),
        sweep_requests(r.GetCounter("ppref_serve_sweep_requests_total",
                                    "Parameter sweeps accepted")),
        sweep_points(r.GetCounter(
            "ppref_serve_sweep_points_total",
            "Parameter points evaluated against cached circuits")),
        circuit_compiles(r.GetCounter(
            "ppref_serve_circuit_compiles_total",
            "Arithmetic circuits compiled (circuit-cache misses)")),
        compile_ns(r.GetCounter("ppref_serve_compile_ns_total",
                                "Nanoseconds spent compiling DpPlans")),
        execute_ns(r.GetCounter("ppref_serve_execute_ns_total",
                                "Nanoseconds spent executing DPs")),
        circuit_compile_ns(
            r.GetCounter("ppref_serve_circuit_compile_ns_total",
                         "Nanoseconds spent compiling circuits")),
        circuit_eval_ns(r.GetCounter(
            "ppref_serve_circuit_eval_ns_total",
            "Nanoseconds spent evaluating cached circuits over sweeps")),
        shed(r.GetCounter("ppref_serve_shed_total",
                          "Requests shed by admission control")),
        invalid(r.GetCounter("ppref_serve_invalid_total",
                             "Requests rejected by validation")),
        deadline_exceeded(
            r.GetCounter("ppref_serve_deadline_exceeded_total",
                         "Requests stopped by their deadline")),
        cancelled(r.GetCounter("ppref_serve_cancelled_total",
                               "Requests stopped by caller cancellation")),
        degraded(r.GetCounter(
            "ppref_serve_degraded_total",
            "Failed requests answered with a Monte-Carlo fallback")),
        internal_errors(
            r.GetCounter("ppref_serve_internal_errors_total",
                         "Unexpected exceptions mapped to kInternal")),
        hard_requests(r.GetCounter(
            "ppref_hard_requests_total",
            "Hard adaptive-estimate queries accepted (pooled patterns "
            "count singly)")),
        hard_batches(r.GetCounter("ppref_hard_batches_total",
                                  "Pooled hard batches accepted")),
        hard_samples(r.GetCounter(
            "ppref_hard_samples_total",
            "Worlds sampled by the hard tier (summed n_samples)")),
        hard_target_met(r.GetCounter(
            "ppref_hard_target_met_total",
            "Hard answers that reached their precision target")),
        hard_deadline_limited(r.GetCounter(
            "ppref_hard_deadline_limited_total",
            "Hard answers stopped early by a deadline budget")),
        consensus_requests(r.GetCounter("ppref_hard_consensus_requests_total",
                                        "Consensus top-k queries accepted")),
        store_hits(r.GetCounter(
            "ppref_serve_store_hits_total",
            "Cache misses answered by decoding a persistent-store record")),
        store_misses(r.GetCounter(
            "ppref_serve_store_misses_total",
            "Cache misses the persistent store could not answer either")),
        store_corrupt(r.GetCounter(
            "ppref_serve_store_corrupt_total",
            "Persistent-store payloads that failed to decode")),
        store_load_ns(r.GetCounter(
            "ppref_serve_store_load_ns_total",
            "Nanoseconds spent decoding persistent-store records")),
        store_writes(r.GetCounter(
            "ppref_serve_store_writes_total",
            "Records written behind to the persistent store")),
        in_flight(r.GetGauge("ppref_serve_in_flight",
                             "Requests currently being served")),
        in_flight_peak(r.GetGauge("ppref_serve_in_flight_peak",
                                  "High-water mark of in-flight depth")),
        plan_cache_hits(
            r.GetGauge("ppref_serve_plan_cache_hits", "Plan cache hits")),
        plan_cache_misses(
            r.GetGauge("ppref_serve_plan_cache_misses", "Plan cache misses")),
        plan_cache_insertions(r.GetGauge("ppref_serve_plan_cache_insertions",
                                         "Plan cache insertions")),
        plan_cache_evictions(r.GetGauge("ppref_serve_plan_cache_evictions",
                                        "Plan cache evictions")),
        result_cache_hits(
            r.GetGauge("ppref_serve_result_cache_hits", "Result cache hits")),
        result_cache_misses(r.GetGauge("ppref_serve_result_cache_misses",
                                       "Result cache misses")),
        result_cache_insertions(
            r.GetGauge("ppref_serve_result_cache_insertions",
                       "Result cache insertions")),
        result_cache_evictions(r.GetGauge("ppref_serve_result_cache_evictions",
                                          "Result cache evictions")),
        circuit_cache_hits(r.GetGauge("ppref_serve_circuit_cache_hits",
                                      "Circuit cache hits")),
        circuit_cache_misses(r.GetGauge("ppref_serve_circuit_cache_misses",
                                        "Circuit cache misses")),
        circuit_cache_insertions(
            r.GetGauge("ppref_serve_circuit_cache_insertions",
                       "Circuit cache insertions")),
        circuit_cache_evictions(
            r.GetGauge("ppref_serve_circuit_cache_evictions",
                       "Circuit cache evictions")),
        hard_cache_hits(
            r.GetGauge("ppref_hard_cache_hits", "Hard cache hits")),
        hard_cache_misses(
            r.GetGauge("ppref_hard_cache_misses", "Hard cache misses")),
        hard_cache_insertions(r.GetGauge("ppref_hard_cache_insertions",
                                         "Hard cache insertions")),
        hard_cache_evictions(r.GetGauge("ppref_hard_cache_evictions",
                                        "Hard cache evictions")),
        traces_published(
            r.GetGauge("ppref_serve_traces_published",
                       "Trace records ever published (including "
                       "overwritten ones)")),
        store_records(r.GetGauge("ppref_serve_store_records",
                                 "Live records in the persistent store")),
        store_segments(r.GetGauge("ppref_serve_store_segments",
                                  "Persistent-store segment files")),
        store_mapped_bytes(
            r.GetGauge("ppref_serve_store_mapped_bytes",
                       "Persistent-store bytes served via mmap")),
        store_disk_bytes(r.GetGauge("ppref_serve_store_disk_bytes",
                                    "Persistent-store bytes on disk")),
        store_last_flush_age_ns(
            r.GetGauge("ppref_serve_store_last_flush_age_ns",
                       "Nanoseconds since the store's last flush")),
        request_ns(r.GetHistogram("ppref_serve_request_latency_ns",
                                  "End-to-end request latency")),
        batch_ns(r.GetHistogram("ppref_serve_batch_latency_ns",
                                "End-to-end batch latency")),
        admission_ns(r.GetHistogram("ppref_serve_stage_admission_ns",
                                    "Admission control + shedding")),
        dedup_fold_ns(r.GetHistogram(
            "ppref_serve_stage_dedup_fold_ns",
            "Validation, dedup folding, and result-cache probes")),
        queue_ns(r.GetHistogram("ppref_serve_stage_queue_ns",
                                "Wait for a worker to pick a unit up")),
        plan_compile_ns(r.GetHistogram("ppref_serve_stage_plan_compile_ns",
                                       "DpPlan compilation")),
        dp_execute_ns(r.GetHistogram("ppref_serve_stage_dp_execute_ns",
                                     "Exact DP execution")),
        mc_fallback_ns(r.GetHistogram("ppref_serve_stage_mc_fallback_ns",
                                      "Monte-Carlo degradation sampling")),
        scatter_ns(r.GetHistogram("ppref_serve_stage_scatter_ns",
                                  "Result publication + response scatter")),
        circuit_compile_hist_ns(
            r.GetHistogram("ppref_serve_stage_circuit_compile_ns",
                           "Arithmetic-circuit compilation")),
        circuit_point_ns(
            r.GetHistogram("ppref_serve_stage_circuit_eval_ns",
                           "Cached-circuit evaluation, per sweep point")),
        hard_sample_ns(
            r.GetHistogram("ppref_hard_stage_sample_ns",
                           "Adaptive Monte-Carlo sampling, per hard query")),
        consensus_ns(r.GetHistogram(
            "ppref_hard_stage_consensus_ns",
            "Consensus sampling + footrule aggregation, per query")) {}
};

/// RAII release of TryAdmit'ed slots (release exactly what was granted,
/// which may be fewer than requested under load shedding).
class Server::AdmissionRelease {
 public:
  AdmissionRelease(Server& server, std::size_t granted)
      : server_(server), granted_(granted) {}
  ~AdmissionRelease() {
    server_.in_flight_.fetch_sub(granted_, std::memory_order_relaxed);
  }

  AdmissionRelease(const AdmissionRelease&) = delete;
  AdmissionRelease& operator=(const AdmissionRelease&) = delete;

 private:
  Server& server_;
  std::size_t granted_;
};

/// What the serving envelope hands a modality: the resolved deadline
/// *value* (0 = none; hard maps it to its precision target and uses it as a
/// non-throwing budget), the throwing RunControl built from it, and the
/// trace record StartTrace may arm.
struct Server::Scope {
  std::uint64_t deadline_ns = 0;
  RunControl run;
  bool has_control = false;
  obs::TraceRecord* trace = nullptr;
  obs::TraceRecord trace_storage;

  const RunControl* control() const { return has_control ? &run : nullptr; }
};

Server::Server(ServerOptions options)
    : options_(options),
      effective_threads_(ClampThreads(options.threads)),
      plan_cache_(options.plan_cache_capacity, options.cache_shards),
      result_cache_(options.result_cache_capacity, options.cache_shards),
      circuit_cache_(options.circuit_cache_capacity, options.cache_shards),
      hard_cache_(options.hard_cache_capacity, options.cache_shards),
      owned_registry_(options.registry == nullptr
                          ? std::make_unique<obs::MetricsRegistry>()
                          : nullptr),
      registry_(options.registry != nullptr ? options.registry
                                            : owned_registry_.get()),
      instruments_(std::make_unique<Instruments>(*registry_)),
      tracer_(options.trace_capacity, options.trace_sample_permyriad) {}

Server::~Server() = default;

Status Server::Validate(const Request& request) const {
  if (request.model == nullptr) {
    return Status::InvalidArgument("request.model is null");
  }
  if (request.pattern == nullptr) {
    return Status::InvalidArgument("request.pattern is null");
  }
  if (request.kind != Request::Kind::kPatternProb &&
      request.kind != Request::Kind::kTopMatching) {
    return Status::InvalidArgument("unknown request kind");
  }
  if (request.model->size() >= infer::internal::kUnsetPosition) {
    return Status::InvalidArgument(
        "model too large for the 16-bit DP position encoding");
  }
  // A pattern node whose label no item carries can never match; the DP
  // handles it (probability 0), but at the serving boundary it is far more
  // likely a malformed request than a deliberate query, so refuse it with a
  // diagnostic instead of silently answering 0.
  const infer::ItemLabeling& labeling = request.model->labeling();
  for (unsigned node = 0; node < request.pattern->NodeCount(); ++node) {
    const infer::LabelId label = request.pattern->NodeLabel(node);
    if (labeling.ItemsWith(label).empty()) {
      return Status::InvalidArgument("pattern label " + std::to_string(label) +
                                     " matches no item of the model");
    }
  }
  return Status::Ok();
}

std::size_t Server::TryAdmit(std::size_t want) {
  std::size_t granted = want;
  if (options_.max_in_flight == 0) {
    in_flight_.fetch_add(want, std::memory_order_relaxed);
  } else {
    // CAS loop: claim as many of `want` slots as fit under the limit.
    std::uint64_t current = in_flight_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t room =
          current >= options_.max_in_flight
              ? 0
              : static_cast<std::uint64_t>(options_.max_in_flight) - current;
      granted = static_cast<std::size_t>(
          std::min<std::uint64_t>(want, room));
      if (granted == 0) return 0;
      if (in_flight_.compare_exchange_weak(current, current + granted,
                                           std::memory_order_relaxed)) {
        break;
      }
    }
  }
  const std::uint64_t now =
      in_flight_.load(std::memory_order_relaxed);
  std::uint64_t peak = in_flight_peak_.load(std::memory_order_relaxed);
  while (peak < now && !in_flight_peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return granted;
}

std::uint64_t Server::RetryAfterHintNs() const {
  // Heuristic: the observed mean busy time per request. A fresh server has
  // no history, so floor at 1ms — long enough to be a meaningful backoff,
  // short enough not to stall a caller on an idle server.
  const std::uint64_t served =
      std::max<std::uint64_t>(1, instruments_->requests.Value());
  const std::uint64_t busy =
      instruments_->compile_ns.Value() + instruments_->execute_ns.Value();
  return std::max<std::uint64_t>(1'000'000, busy / served);
}

template <typename Body>
Status Server::Guard(const char* what, Body&& body) {
  try {
    body();
    return Status::Ok();
  } catch (const CancelledError& e) {
    instruments_->cancelled.Inc();
    return Status::Cancelled(e.what());
  } catch (const DeadlineExceededError& e) {
    instruments_->deadline_exceeded.Inc();
    return Status::DeadlineExceeded(e.what());
  } catch (const std::exception& e) {
    instruments_->internal_errors.Inc();
    return Status::Internal(e.what());
  } catch (...) {
    instruments_->internal_errors.Inc();
    return Status::Internal(std::string("unknown exception during ") + what);
  }
}

template <typename T, typename Body>
StatusOr<T> Server::Serve(const RequestControl& control, const char* what,
                          Body&& body) {
  // One admission slot covers the whole call: the expensive part (a circuit
  // compile, a shared world stream, a consensus sample) happens once,
  // however many points or queries ride it.
  if (TryAdmit(1) == 0) {
    instruments_->shed.Inc();
    return Status::ResourceExhausted(
        "shed by admission control (server full); retry after " +
        std::to_string(RetryAfterHintNs()) + "ns");
  }
  const AdmissionRelease release(*this, 1);

  Scope scope;
  scope.deadline_ns = control.deadline_ns != 0 ? control.deadline_ns
                                               : options_.default_deadline_ns;
  if (scope.deadline_ns != 0) {
    scope.run.deadline = Deadline::After(scope.deadline_ns);
  }
  scope.run.cancel = control.cancel;
  scope.has_control = scope.deadline_ns != 0 || control.cancel != nullptr;

  std::optional<T> answer;
  Status status = Guard(what, [&] { answer.emplace(body(scope)); });
  if (!status.ok()) return status;
  if (scope.trace != nullptr) {
    scope.trace->end_ns = MonotonicNowNs();
    scope.trace->status_code = static_cast<std::uint8_t>(StatusCode::kOk);
    tracer_.Publish(*scope.trace);
  }
  return *std::move(answer);
}

void Server::StartTrace(Scope& scope, std::uint64_t fingerprint) {
  // Deterministic sampling, keyed like everything else on content.
  if (tracer_.sample_permyriad() == 0 || !tracer_.ShouldSample(fingerprint)) {
    return;
  }
  scope.trace = &scope.trace_storage;
  scope.trace->fingerprint = fingerprint;
  scope.trace->start_ns = MonotonicNowNs();
}

std::shared_ptr<const Server::CachedResult> Server::LookupResult(
    std::uint64_t result_key) {
  if (PPREF_FAULT_FORCED_RESULT_MISS()) return nullptr;
  if (auto hit = result_cache_.Get(result_key)) return hit;
  if (options_.store == nullptr) return nullptr;
  const auto fetch = options_.store->Get(store::RecordKind::kResult, result_key);
  if (!fetch.has_value()) {
    instruments_->store_misses.Inc();
    return nullptr;
  }
  const std::uint64_t start = MonotonicNowNs();
  auto decoded = store::DecodeResultPayload(fetch->bytes);
  if (!decoded.has_value()) {
    instruments_->store_corrupt.Inc();
    instruments_->store_misses.Inc();
    return nullptr;
  }
  instruments_->store_load_ns.Inc(MonotonicNowNs() - start);
  instruments_->store_hits.Inc();
  // Promote into the LRU so the next lookup skips the decode.
  return result_cache_.Put(
      result_key,
      std::make_shared<const CachedResult>(CachedResult{
          decoded->probability, std::move(decoded->top_matching)}));
}

std::shared_ptr<const Server::CachedPlan> Server::LoadPlanFromStore(
    std::uint64_t plan_key, obs::TraceRecord* trace) {
  if (options_.store == nullptr) return nullptr;
  const auto fetch = options_.store->Get(store::RecordKind::kPlan, plan_key);
  if (!fetch.has_value()) {
    instruments_->store_misses.Inc();
    return nullptr;
  }
  const obs::TraceSpan span(trace, obs::Stage::kStoreLoad);
  const std::uint64_t start = MonotonicNowNs();
  auto decoded = store::DecodePlanPayload(fetch->bytes);
  if (!decoded.has_value()) {
    instruments_->store_corrupt.Inc();
    instruments_->store_misses.Inc();
    return nullptr;
  }
  // A plan record is self-contained: the decoded model/pattern/tracked plus
  // the derived state rebuild the DpPlan without compiling (the normal
  // path); derived bytes from a drifted build fall back to compiling from
  // the decoded inputs, which is still correct — just not fast.
  bool restored = false;
  auto entry = std::make_shared<const CachedPlan>(*std::move(decoded), restored);
  instruments_->store_load_ns.Inc(MonotonicNowNs() - start);
  if (!restored) instruments_->store_corrupt.Inc();
  instruments_->store_hits.Inc();
  return entry;
}

std::shared_ptr<const Server::CachedCircuit> Server::LoadCircuitFromStore(
    std::uint64_t circuit_key, obs::TraceRecord* trace) {
  if (options_.store == nullptr) return nullptr;
  auto fetch = options_.store->Get(store::RecordKind::kCircuit, circuit_key);
  if (!fetch.has_value()) {
    instruments_->store_misses.Inc();
    return nullptr;
  }
  const obs::TraceSpan span(trace, obs::Stage::kStoreLoad);
  const std::uint64_t start = MonotonicNowNs();
  // The fetch's owner rides into the circuit: a record served out of a
  // mapped segment is borrowed zero-copy, and the mapping stays alive for
  // as long as the cached circuit does.
  auto circuit =
      store::DecodeCircuitPayload(fetch->bytes, std::move(fetch->owner));
  if (!circuit.has_value()) {
    instruments_->store_corrupt.Inc();
    instruments_->store_misses.Inc();
    return nullptr;
  }
  instruments_->store_load_ns.Inc(MonotonicNowNs() - start);
  instruments_->store_hits.Inc();
  return std::make_shared<const CachedCircuit>(*std::move(circuit));
}

void Server::StoreResult(std::uint64_t result_key, const CachedResult& result) {
  if (options_.store == nullptr) return;
  instruments_->store_writes.Inc();
  options_.store->Put(
      store::RecordKind::kResult, result_key,
      store::EncodeResultPayload(result.probability, result.top_matching));
}

std::shared_ptr<const Server::CachedPlan> Server::PlanFor(
    const infer::LabeledRimModel& model, const infer::LabelPattern& pattern,
    const std::vector<infer::LabelId>& tracked, std::uint64_t plan_key,
    const RunControl* control, obs::TraceRecord* trace) {
  const auto compile = [&]() -> std::shared_ptr<const CachedPlan> {
    PPREF_FAULT_PLAN_COMPILE();
    if (control != nullptr) control->Check();
    if (auto loaded = LoadPlanFromStore(plan_key, trace)) return loaded;
    const obs::TraceSpan span(trace, obs::Stage::kPlanCompile);
    const std::uint64_t start = MonotonicNowNs();
    auto entry = std::make_shared<const CachedPlan>(model, pattern, tracked);
    const std::uint64_t elapsed = MonotonicNowNs() - start;
    instruments_->compile_ns.Inc(elapsed);
    if (options_.latency_histograms) {
      instruments_->plan_compile_ns.Record(elapsed);
    }
    if (options_.store != nullptr) {
      instruments_->store_writes.Inc();
      options_.store->Put(store::RecordKind::kPlan, plan_key,
                          store::EncodePlanPayload(entry->model, entry->pattern,
                                                   entry->tracked, entry->plan));
    }
    return entry;
  };
  if (PPREF_FAULT_FORCED_PLAN_MISS()) {
    // Miss-storm injection: compile fresh, bypassing the cache entirely so
    // every request pays the full compile cost (and the single-flight path
    // is not exercised — that is the point of this knob: worst case).
    return compile();
  }
  // Single-flight: concurrent misses on one key coalesce into a single
  // compilation; under this path plan_cache().misses equals the number of
  // actual compilations.
  return plan_cache_.GetOrCompute(
      plan_key, compile,
      control != nullptr ? &control->deadline : nullptr,
      control != nullptr ? control->cancel : nullptr);
}

std::shared_ptr<const Server::CachedCircuit> Server::CircuitFor(
    const infer::LabeledRimModel& model, const infer::LabelPattern& pattern,
    std::uint64_t circuit_key, const RunControl* control,
    obs::TraceRecord* trace) {
  const auto compile = [&]() -> std::shared_ptr<const CachedCircuit> {
    if (control != nullptr) control->Check();
    if (auto loaded = LoadCircuitFromStore(circuit_key, trace)) return loaded;
    // Circuits compile *from* plans, so a sweep warms the plan cache for
    // later point queries against the same (model, pattern) — and reuses a
    // plan such queries already compiled.
    const std::shared_ptr<const CachedPlan> plan =
        PlanFor(model, pattern, kNoTracked,
                PlanKey(model, pattern, kNoTracked), control, trace);
    const obs::TraceSpan span(trace, obs::Stage::kCircuitCompile);
    const std::uint64_t start = MonotonicNowNs();
    auto entry = std::make_shared<const CachedCircuit>(
        circuit::CompilePatternProb(plan->plan));
    const std::uint64_t elapsed = MonotonicNowNs() - start;
    instruments_->circuit_compiles.Inc();
    instruments_->circuit_compile_ns.Inc(elapsed);
    if (options_.latency_histograms) {
      instruments_->circuit_compile_hist_ns.Record(elapsed);
    }
    if (options_.store != nullptr) {
      instruments_->store_writes.Inc();
      options_.store->Put(store::RecordKind::kCircuit, circuit_key,
                          store::EncodeCircuitPayload(entry->circuit));
    }
    return entry;
  };
  return circuit_cache_.GetOrCompute(
      circuit_key, compile,
      control != nullptr ? &control->deadline : nullptr,
      control != nullptr ? control->cancel : nullptr);
}

Server::CachedResult Server::Compute(const Request& request,
                                     std::uint64_t plan_key,
                                     const RunControl* control,
                                     obs::TraceRecord* trace) {
  // Internal invariant, not input validation: every entry point validates
  // before computing.
  PPREF_CHECK(request.model != nullptr && request.pattern != nullptr);
  // Fail an already-stopped request before touching the caches: a cached
  // plan plus a small DP could otherwise finish inside the stop window and
  // make "deadline 0" sometimes succeed.
  if (control != nullptr) control->Check();
  std::shared_ptr<const CachedPlan> plan;
  {
    // The cache-wait span covers the whole plan resolution, including a
    // compile done by this thread; the finalize step subtracts the nested
    // plan_compile span, leaving the pure wait-or-lookup time.
    const obs::TraceSpan span(trace, obs::Stage::kCacheWait);
    plan = PlanFor(*request.model, *request.pattern, kNoTracked, plan_key,
                   control, trace);
  }
  infer::PatternProbOptions exec;
  exec.threads = options_.matching_threads;
  exec.control = control;
  CachedResult result;
  const obs::TraceSpan span(trace, obs::Stage::kDpExecute);
  const std::uint64_t start = MonotonicNowNs();
  const auto account = [&] {
    // Count the time spent even when the DP is stopped mid-scan, so the
    // retry-after hint reflects what failed work actually cost.
    const std::uint64_t elapsed = MonotonicNowNs() - start;
    instruments_->execute_ns.Inc(elapsed);
    if (options_.latency_histograms) {
      instruments_->dp_execute_ns.Record(elapsed);
    }
  };
  try {
    if (request.kind == Request::Kind::kPatternProb) {
      result.probability = infer::PatternProbWithPlan(plan->plan, exec);
    } else {
      if (auto best = infer::MostProbableTopMatchingWithPlan(plan->plan, exec)) {
        result.probability = best->second;
        result.top_matching = std::move(best->first);
      }
    }
  } catch (...) {
    account();
    throw;
  }
  account();
  return result;
}

Server::Outcome Server::Degrade(const Request& request,
                                std::uint64_t result_key,
                                std::uint64_t deadline_ns, Status status,
                                obs::TraceRecord* trace) {
  instruments_->degraded.Inc();
  Outcome outcome;
  outcome.status = std::move(status);
  outcome.approximate = true;
  // Seeded from the request fingerprint: repeating the request reproduces
  // the identical approximate answer (the seeded block decomposition makes
  // the estimate thread-count independent, and threads=1 keeps the
  // fallback from competing with healthy exact work for cores). The
  // fallback honors cancellation but deliberately not the already-blown
  // deadline — it is the bounded-cost answer served *because* the deadline
  // fired, sized by degraded_samples rather than time. The deadline still
  // matters deterministically: its *value* maps to a precision target, so a
  // request with a near-dead deadline stops sampling as soon as the CI
  // half-width reaches the (coarse) floor instead of always spending the
  // full budget — an honest, wider-std_error answer. No deadline (size
  // guard degrades) disables the precision stop, which reduces bit-exactly
  // to the fixed-budget estimate.
  RunControl cancel_only;
  cancel_only.cancel = request.control.cancel;
  const RunControl* control =
      request.control.cancel != nullptr ? &cancel_only : nullptr;
  const obs::TraceSpan span(trace, obs::Stage::kMcFallback);
  const bool timed = options_.latency_histograms;
  const std::uint64_t start = timed ? MonotonicNowNs() : 0;
  try {
    if (request.kind == Request::Kind::kPatternProb) {
      hard::AdaptiveOptions adaptive;
      adaptive.target_half_width = DeadlineTargetFloor(deadline_ns);
      adaptive.z = options_.hard_z;
      adaptive.min_samples = options_.hard_min_samples;
      adaptive.max_samples = std::max(1u, options_.degraded_samples);
      adaptive.threads = 1;
      adaptive.seed = HashCombine(result_key, kKeyMcSeed);
      adaptive.control = control;
      // A one-pattern pool answers exactly what a solo run would.
      const hard::AdaptiveEstimate estimate =
          hard::EstimatePatternProbsPooled(*request.model, {request.pattern},
                                           adaptive)
              .front();
      outcome.result.probability = estimate.estimate;
      outcome.std_error = estimate.std_error;
    } else {
      infer::McOptions mc;
      mc.samples = std::max(1u, options_.degraded_samples);
      mc.threads = 1;
      mc.seed = HashCombine(result_key, kKeyMcSeed);
      mc.control = control;
      const infer::McTopMatching top =
          infer::TopMatchingMonteCarlo(*request.model, *request.pattern, mc);
      outcome.result.probability = top.frequency;
      if (top.frequency > 0.0) outcome.result.top_matching = top.matching;
      outcome.std_error = top.std_error;
    }
  } catch (const CancelledError&) {
    instruments_->cancelled.Inc();
    outcome = Outcome{};
    outcome.status = Status::Cancelled("cancelled during degraded sampling");
  }
  if (timed) instruments_->mc_fallback_ns.Record(MonotonicNowNs() - start);
  return outcome;
}

Server::Outcome Server::ComputeGuarded(const Request& request,
                                       std::uint64_t plan_key,
                                       std::uint64_t result_key,
                                       std::uint64_t deadline_ns,
                                       const RunControl* control,
                                       obs::TraceRecord* trace) {
  // Size guard first: an over-budget pattern is refused (or degraded)
  // *before* any exponential work starts. The size-guard fallback carries
  // no deadline mapping — the pattern, not time pressure, is the problem —
  // so it always spends the full degraded budget, deterministically.
  if (options_.max_pattern_nodes != 0 &&
      request.pattern->NodeCount() > options_.max_pattern_nodes) {
    Status status = Status::ResourceExhausted(
        "pattern has " + std::to_string(request.pattern->NodeCount()) +
        " nodes, over the server limit of " +
        std::to_string(options_.max_pattern_nodes));
    if (options_.degradation == ServerOptions::Degradation::kMonteCarlo) {
      return Degrade(request, result_key, /*deadline_ns=*/0, std::move(status),
                     trace);
    }
    Outcome outcome;
    outcome.status = std::move(status);
    return outcome;
  }
  Outcome outcome;
  outcome.status = Guard("compute", [&] {
    outcome.result = Compute(request, plan_key, control, trace);
  });
  if (outcome.status.ok()) {
    outcome.cache_ok = true;
  } else if (outcome.status.code() == StatusCode::kDeadlineExceeded &&
             options_.degradation == ServerOptions::Degradation::kMonteCarlo) {
    return Degrade(request, result_key, deadline_ns, std::move(outcome.status),
                   trace);
  }
  return outcome;
}

Response Server::Evaluate(const Request& request) {
  const std::vector<Request> batch{request};
  return EvaluateBatch(batch).front();
}

StatusOr<std::vector<double>> Server::PatternProbSweep(
    const infer::LabeledRimModel& model, const infer::LabelPattern& pattern,
    const std::vector<std::vector<double>>& params,
    const RequestControl& control) {
  instruments_->requests.Inc();
  instruments_->sweep_requests.Inc();

  // Validation: the shared request checks, then the sweep-specific shape
  // of the parameter grid. Dispersions are range-checked *here* so a bad
  // point comes back as kInvalidArgument instead of aborting inside the
  // Mallows constructor.
  Request probe;
  probe.kind = Request::Kind::kPatternProb;
  probe.model = &model;
  probe.pattern = &pattern;
  if (Status status = Validate(probe); !status.ok()) {
    instruments_->invalid.Inc();
    return status;
  }
  const unsigned m = model.model().size();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::vector<double>& point = params[i];
    if (point.size() != 1 && point.size() != m) {
      instruments_->invalid.Inc();
      return Status::InvalidArgument(
          "params[" + std::to_string(i) + "] has " +
          std::to_string(point.size()) + " dispersions; expected 1 (Mallows) "
          "or " + std::to_string(m) + " (generalized Mallows)");
    }
    for (double phi : point) {
      if (!(phi > 0.0 && phi <= 1.0)) {
        instruments_->invalid.Inc();
        return Status::InvalidArgument("dispersion in params[" +
                                       std::to_string(i) +
                                       "] is outside (0, 1]");
      }
    }
  }
  // The size guard applies as to any other request; sweeps are an
  // exact-only modality, so there is no Monte-Carlo fallback here.
  if (options_.max_pattern_nodes != 0 &&
      pattern.NodeCount() > options_.max_pattern_nodes) {
    return Status::ResourceExhausted(
        "pattern has " + std::to_string(pattern.NodeCount()) +
        " nodes, over the server limit of " +
        std::to_string(options_.max_pattern_nodes));
  }

  return Serve<std::vector<double>>(control, "sweep", [&](Scope& scope) {
    const std::uint64_t circuit_key = CircuitKey(model, pattern);
    // Traced in the sweep domain of the circuit key.
    StartTrace(scope, HashCombine(circuit_key, kKeySweep));
    const std::shared_ptr<const CachedCircuit> entry =
        CircuitFor(model, pattern, circuit_key, scope.control(), scope.trace);
    std::vector<double> answers(params.size());
    circuit::EvalScratch scratch;
    const obs::TraceSpan span(scope.trace, obs::Stage::kCircuitEval);
    const std::uint64_t start = MonotonicNowNs();
    // Points run through the blocked evaluator in chunks: one arena pass
    // covers kEvalLanes bindings, and cancellation/deadline is polled at
    // chunk granularity (a chunk is a few arena scans, bounded work).
    constexpr std::size_t kSweepChunk = 8 * circuit::kEvalLanes;
    std::vector<rim::InsertionFunction> bindings;
    bindings.reserve(std::min(params.size(), kSweepChunk));
    for (std::size_t begin = 0; begin < params.size();
         begin += kSweepChunk) {
      if (scope.has_control) scope.run.Check();
      const std::size_t end = std::min(begin + kSweepChunk, params.size());
      bindings.clear();
      for (std::size_t i = begin; i < end; ++i) {
        const std::vector<double>& point = params[i];
        bindings.push_back(
            point.size() == 1
                ? rim::InsertionFunction::Mallows(m, point[0])
                : rim::InsertionFunction::GeneralizedMallows(point));
      }
      entry->circuit.EvaluateMany(bindings.data(), bindings.size(), scratch,
                                  answers.data() + begin);
    }
    const std::uint64_t elapsed = MonotonicNowNs() - start;
    instruments_->circuit_eval_ns.Inc(elapsed);
    instruments_->sweep_points.Inc(params.size());
    if (options_.latency_histograms && !params.empty()) {
      instruments_->circuit_point_ns.RecordMany(elapsed / params.size(),
                                                params.size());
    }
    return answers;
  });
}

double Server::EffectiveHardTarget(double target_half_width,
                                   std::uint64_t deadline_ns) const {
  const double requested = target_half_width > 0.0
                               ? target_half_width
                               : options_.hard_default_target;
  return std::max(requested, DeadlineTargetFloor(deadline_ns));
}

std::uint64_t Server::HardSeed(const infer::LabeledRimModel& model) const {
  // A function of the model *structure and parameters* plus the block
  // decomposition only — never of any pattern — so every hard query against
  // one model draws the identical world stream, which is what lets pooled
  // and solo answers share cache entries bit for bit.
  StreamHash hash;
  hash.Mix(FingerprintModel(model.model()));
  hash.Mix(kKeyHard);
  hash.Mix(options_.hard_max_samples);
  hash.Mix(options_.hard_block_samples);
  return HashCombine(hash.digest(), kKeyMcSeed);
}

std::uint64_t Server::HardKey(std::uint64_t plan_key,
                              double effective_target) const {
  StreamHash hash;
  hash.Mix(plan_key);
  hash.Mix(kKeyHard);
  hash.MixDouble(effective_target);
  hash.MixDouble(options_.hard_z);
  hash.Mix(options_.hard_min_samples);
  hash.Mix(options_.hard_max_samples);
  hash.Mix(options_.hard_block_samples);
  return hash.digest();
}

StatusOr<HardEstimate> Server::HardPatternProb(
    const infer::LabeledRimModel& model, const infer::LabelPattern& pattern,
    double target_half_width, const RequestControl& control) {
  std::vector<const infer::LabelPattern*> patterns{&pattern};
  StatusOr<std::vector<HardEstimate>> pooled =
      HardPatternProbBatch(model, patterns, target_half_width, control);
  if (!pooled.ok()) return pooled.status();
  return std::move(pooled->front());
}

StatusOr<std::vector<HardEstimate>> Server::HardPatternProbBatch(
    const infer::LabeledRimModel& model,
    const std::vector<const infer::LabelPattern*>& patterns,
    double target_half_width, const RequestControl& control) {
  instruments_->requests.Inc();
  instruments_->hard_batches.Inc();
  instruments_->hard_requests.Inc(patterns.size());

  // Validation: every pattern passes the shared request checks against the
  // one model. A bad pattern fails the whole batch — partial pooled batches
  // would silently change which queries share the world stream's cost.
  for (std::size_t q = 0; q < patterns.size(); ++q) {
    Request probe;
    probe.kind = Request::Kind::kPatternProb;
    probe.model = &model;
    probe.pattern = patterns[q];
    if (Status status = Validate(probe); !status.ok()) {
      instruments_->invalid.Inc();
      return Status::InvalidArgument("patterns[" + std::to_string(q) +
                                     "]: " + status.message());
    }
  }
  if (patterns.empty()) return std::vector<HardEstimate>{};

  using Answers = std::vector<HardEstimate>;
  return Serve<Answers>(control, "hard sampling", [&](Scope& scope) {
    const double target = EffectiveHardTarget(target_half_width,
                                              scope.deadline_ns);
    // Per-query keys and cache probes. Pooled answers are bit-identical to
    // solo ones (the world stream is seeded from the model alone and each
    // query's stopping rule is query-local), so cached and freshly pooled
    // answers mix freely; only the misses sample.
    std::vector<std::uint64_t> keys(patterns.size());
    Answers answers(patterns.size());
    std::vector<std::size_t> misses;
    for (std::size_t q = 0; q < patterns.size(); ++q) {
      keys[q] = HardKey(PlanKey(model, *patterns[q], kNoTracked), target);
      if (const auto hit = hard_cache_.Get(keys[q])) {
        answers[q].estimate = hit->estimate;
        answers[q].std_error = hit->std_error;
        answers[q].n_samples = hit->n_samples;
        answers[q].target_met = hit->target_met;
        continue;
      }
      misses.push_back(q);
    }
    if (misses.empty()) return answers;
    StartTrace(scope, keys[misses.front()]);

    hard::AdaptiveOptions adaptive;
    adaptive.target_half_width = target;
    adaptive.z = options_.hard_z;
    adaptive.min_samples = options_.hard_min_samples;
    adaptive.max_samples = std::max(1u, options_.hard_max_samples);
    adaptive.block_samples = std::max(1u, options_.hard_block_samples);
    adaptive.threads = effective_threads_;
    adaptive.seed = HardSeed(model);
    RunControl cancel_only;
    cancel_only.cancel = control.cancel;
    adaptive.control = control.cancel != nullptr ? &cancel_only : nullptr;
    // The deadline is the non-throwing between-rounds budget: expiry yields
    // honest deadline-limited answers, not an exception.
    adaptive.budget = &scope.run.deadline;

    std::vector<const infer::LabelPattern*> miss_patterns;
    miss_patterns.reserve(misses.size());
    for (const std::size_t q : misses) miss_patterns.push_back(patterns[q]);

    std::vector<hard::AdaptiveEstimate> pooled;
    {
      const obs::TraceSpan span(scope.trace, obs::Stage::kHardSample);
      const bool timed = options_.latency_histograms;
      const std::uint64_t start = timed ? MonotonicNowNs() : 0;
      pooled = hard::EstimatePatternProbsPooled(model, miss_patterns, adaptive);
      if (timed) {
        instruments_->hard_sample_ns.Record(MonotonicNowNs() - start);
      }
    }
    for (std::size_t i = 0; i < misses.size(); ++i) {
      const hard::AdaptiveEstimate& estimate = pooled[i];
      const std::size_t q = misses[i];
      answers[q].estimate = estimate.estimate;
      answers[q].std_error = estimate.std_error;
      answers[q].n_samples = estimate.n_samples;
      answers[q].target_met = estimate.target_met;
      answers[q].deadline_limited = estimate.deadline_limited;
      instruments_->hard_samples.Inc(estimate.n_samples);
      if (estimate.target_met) instruments_->hard_target_met.Inc();
      if (estimate.deadline_limited) {
        // Honest but wall-clock dependent — never cached.
        instruments_->hard_deadline_limited.Inc();
        continue;
      }
      CachedHard cached;
      cached.estimate = estimate.estimate;
      cached.std_error = estimate.std_error;
      cached.n_samples = estimate.n_samples;
      cached.target_met = estimate.target_met;
      hard_cache_.Put(keys[q],
                      std::make_shared<const CachedHard>(std::move(cached)));
    }
    return answers;
  });
}

StatusOr<ConsensusAnswer> Server::ConsensusTopK(
    const infer::LabeledRimModel& model, unsigned top_k,
    const RequestControl& control) {
  instruments_->requests.Inc();
  instruments_->consensus_requests.Inc();

  const unsigned m = model.model().size();
  if (m == 0) {
    instruments_->invalid.Inc();
    return Status::InvalidArgument("consensus over an empty model");
  }
  if (top_k == 0) {
    instruments_->invalid.Inc();
    return Status::InvalidArgument("top_k must be positive");
  }
  // Size guard: the exact footrule aggregation is O(m³) (Hungarian) with an
  // O(m²) count matrix — a model over the limit is refused before any work.
  if (options_.max_consensus_items != 0 && m > options_.max_consensus_items) {
    return Status::ResourceExhausted(
        "model has " + std::to_string(m) +
        " items, over the consensus limit of " +
        std::to_string(options_.max_consensus_items));
  }

  return Serve<ConsensusAnswer>(control, "consensus", [&](Scope& scope) {
    // The cache key covers the full consensus computation (model + sampling
    // budget), never top_k: the cached entry holds the full-length consensus
    // and each response truncates its own k.
    StreamHash key_hash;
    key_hash.Mix(FingerprintModel(model.model()));
    key_hash.Mix(kKeyConsensus);
    key_hash.Mix(options_.consensus_samples);
    key_hash.Mix(options_.hard_block_samples);
    const std::uint64_t key = key_hash.digest();

    std::shared_ptr<const CachedHard> value = hard_cache_.Get(key);
    if (value == nullptr) {
      StartTrace(scope, key);
      hard::ConsensusOptions consensus;
      consensus.samples = std::max(1u, options_.consensus_samples);
      consensus.block_samples = std::max(1u, options_.hard_block_samples);
      consensus.threads = effective_threads_;
      consensus.seed = HashCombine(key, kKeyMcSeed);
      consensus.control = scope.control();
      hard::ConsensusResult result;
      {
        const obs::TraceSpan span(scope.trace, obs::Stage::kHardSample);
        const bool timed = options_.latency_histograms;
        const std::uint64_t start = timed ? MonotonicNowNs() : 0;
        result = hard::ConsensusRanking(model.model(), consensus);
        if (timed) instruments_->consensus_ns.Record(MonotonicNowNs() - start);
      }
      instruments_->hard_samples.Inc(result.n_samples);
      CachedHard cached;
      cached.ranking = std::move(result.ranking);
      cached.mean_footrule = result.mean_footrule;
      cached.footrule_std_error = result.footrule_std_error;
      cached.mean_kendall = result.mean_kendall;
      cached.kendall_std_error = result.kendall_std_error;
      cached.n_samples = result.n_samples;
      value = hard_cache_.Put(
          key, std::make_shared<const CachedHard>(std::move(cached)));
    }
    ConsensusAnswer answer;
    answer.ranking.assign(
        value->ranking.begin(),
        value->ranking.begin() +
            std::min<std::size_t>(top_k, value->ranking.size()));
    answer.mean_footrule = value->mean_footrule;
    answer.footrule_std_error = value->footrule_std_error;
    answer.mean_kendall = value->mean_kendall;
    answer.kendall_std_error = value->kendall_std_error;
    answer.n_samples = value->n_samples;
    return answer;
  });
}

/// One unique computation within a batch: distinct (result key, deadline,
/// cancellation token). Two byte-identical requests with different stop
/// conditions must not share a slot — one's tight deadline would decide the
/// other's answer.
struct Server::Unit {
  std::uint64_t result_key = 0;
  std::uint64_t plan_key = 0;
  std::size_t first_request = 0;
  /// The resolved deadline *value* (0 = none); the degradation fallback
  /// maps it to its precision target.
  std::uint64_t deadline_ns = 0;
  bool has_control = false;
  RunControl control;
  /// Trace record for sampled units: written only by the single worker that
  /// serves the unit, finalized and published after the join.
  bool traced = false;
  obs::TraceRecord trace;
  /// When the worker finished this unit (0 for cache hits / untimed runs);
  /// the scatter span runs from here to batch end, so it includes the
  /// barrier wait for the batch's slowest sibling.
  std::uint64_t worker_end_ns = 0;
};

std::vector<Response> Server::EvaluateBatch(const std::vector<Request>& requests) {
  instruments_->batches.Inc();
  instruments_->requests.Inc(requests.size());

  // Batch-level clock reads only happen when someone consumes them: the
  // latency histograms or an armed tracer. With both off the warm path does
  // no clock reads beyond the pre-existing compile/execute accounting.
  const bool timed = options_.latency_histograms;
  const bool tracing = tracer_.sample_permyriad() > 0;
  const bool batch_timed = timed || tracing;
  const std::uint64_t t_start = batch_timed ? MonotonicNowNs() : 0;

  std::vector<Response> responses(requests.size());

  // Admission: claim in-flight slots for as many requests as fit; the tail
  // is shed immediately with a terminal status and a backoff hint — never
  // silently dropped, never queued unboundedly.
  const std::size_t admitted = TryAdmit(requests.size());
  const AdmissionRelease release(*this, admitted);
  for (std::size_t i = admitted; i < requests.size(); ++i) {
    instruments_->shed.Inc();
    responses[i].status =
        Status::ResourceExhausted("shed by admission control (server full)");
    responses[i].retry_after_ns = RetryAfterHintNs();
  }
  const std::uint64_t t_admitted = batch_timed ? MonotonicNowNs() : 0;

  // Validate + dedup the admitted prefix. Deadlines are resolved to
  // absolute time *here*, at admission, so time spent waiting for a worker
  // counts against the request's budget.
  std::vector<Unit> units;
  std::vector<std::size_t> slot_of(admitted, kNoSlot);
  std::unordered_map<std::uint64_t, std::size_t> slot_by_key;
  std::size_t valid = 0;
  for (std::size_t i = 0; i < admitted; ++i) {
    const Request& request = requests[i];
    if (Status status = Validate(request); !status.ok()) {
      instruments_->invalid.Inc();
      responses[i].status = std::move(status);
      continue;
    }
    ++valid;
    const std::uint64_t plan_key =
        PlanKey(*request.model, *request.pattern, kNoTracked);
    const std::uint64_t result_key = HashCombine(
        plan_key, request.kind == Request::Kind::kPatternProb ? kKeyPatternProb
                                                              : kKeyTopMatching);
    const std::uint64_t deadline_ns = request.control.deadline_ns != 0
                                          ? request.control.deadline_ns
                                          : options_.default_deadline_ns;
    // Dedup key folds the stop conditions in; identical requests with
    // identical controls share one computation.
    const std::uint64_t unit_key = HashCombine(
        result_key,
        HashCombine(deadline_ns, static_cast<std::uint64_t>(
                                     reinterpret_cast<std::uintptr_t>(
                                         request.control.cancel))));
    const auto [it, inserted] = slot_by_key.emplace(unit_key, units.size());
    if (inserted) {
      Unit unit;
      unit.result_key = result_key;
      unit.plan_key = plan_key;
      unit.first_request = i;
      unit.deadline_ns = deadline_ns;
      unit.has_control =
          deadline_ns != 0 || request.control.cancel != nullptr;
      if (deadline_ns != 0) unit.control.deadline = Deadline::After(deadline_ns);
      unit.control.cancel = request.control.cancel;
      unit.traced = tracing && tracer_.ShouldSample(result_key);
      units.push_back(unit);
    }
    slot_of[i] = it->second;
  }
  instruments_->batch_deduped.Inc(valid - units.size());

  // Resolve result-cache hits; collect the misses. A cache hit is exact and
  // instant, so stop conditions don't apply to it.
  std::vector<std::shared_ptr<const CachedResult>> resolved(units.size());
  std::vector<std::size_t> misses;
  for (std::size_t u = 0; u < units.size(); ++u) {
    resolved[u] = LookupResult(units[u].result_key);
    if (!resolved[u]) misses.push_back(u);
  }
  const std::uint64_t t_folded = batch_timed ? MonotonicNowNs() : 0;
  for (Unit& unit : units) {
    if (!unit.traced) continue;
    unit.trace.fingerprint = unit.result_key;
    unit.trace.start_ns = t_start;
    unit.trace.stage_ns[StageIdx(obs::Stage::kAdmission)] =
        t_admitted - t_start;
    unit.trace.stage_ns[StageIdx(obs::Stage::kDedupFold)] =
        t_folded - t_admitted;
  }

  // Fan unique cold work over the pool, each computation wrapped in the
  // failure policy — ComputeGuarded never throws, so one bad request can't
  // take down its batch neighbors.
  std::vector<Outcome> outcomes(misses.size());
  ParallelForWorkers(
      misses.size(), effective_threads_, [&](unsigned, std::size_t i) {
        Unit& unit = units[misses[i]];
        obs::TraceRecord* trace = unit.traced ? &unit.trace : nullptr;
        const bool unit_timed = timed || trace != nullptr;
        if (unit_timed) {
          const std::uint64_t t_picked = MonotonicNowNs();
          const std::uint64_t queue_ns = t_picked - t_folded;
          if (trace != nullptr) {
            trace->stage_ns[StageIdx(obs::Stage::kQueue)] = queue_ns;
          }
          if (timed) instruments_->queue_ns.Record(queue_ns);
        }
        outcomes[i] = ComputeGuarded(requests[unit.first_request],
                                     unit.plan_key, unit.result_key,
                                     unit.deadline_ns,
                                     unit.has_control ? &unit.control : nullptr,
                                     trace);
        if (unit_timed) unit.worker_end_ns = MonotonicNowNs();
      });
  const std::uint64_t t_joined = batch_timed ? MonotonicNowNs() : 0;

  // Publish exact answers in unique order (deterministic cache contents for
  // a given request trace, whatever the worker interleaving was).
  // Approximate and failed outcomes are never cached.
  for (std::size_t i = 0; i < misses.size(); ++i) {
    if (!outcomes[i].cache_ok) continue;
    // Copy, not move: the scatter loop below still reads this outcome.
    result_cache_.Put(units[misses[i]].result_key,
                      std::make_shared<const CachedResult>(outcomes[i].result));
    StoreResult(units[misses[i]].result_key, outcomes[i].result);
  }

  // Scatter answers back in request order. Shed and invalid requests
  // already carry their responses.
  std::vector<std::size_t> outcome_of(units.size(), kNoSlot);
  for (std::size_t i = 0; i < misses.size(); ++i) outcome_of[misses[i]] = i;
  for (std::size_t i = 0; i < admitted; ++i) {
    if (slot_of[i] == kNoSlot) continue;
    const std::size_t u = slot_of[i];
    if (resolved[u] != nullptr) {
      responses[i].status = Status::Ok();
      responses[i].probability = resolved[u]->probability;
      responses[i].top_matching = resolved[u]->top_matching;
      continue;
    }
    const Outcome& outcome = outcomes[outcome_of[u]];
    responses[i].status = outcome.status;
    responses[i].approximate = outcome.approximate;
    responses[i].std_error = outcome.std_error;
    if (outcome.status.ok() || outcome.approximate) {
      responses[i].probability = outcome.result.probability;
      responses[i].top_matching = outcome.result.top_matching;
    }
    if (outcome.status.code() == StatusCode::kResourceExhausted) {
      responses[i].retry_after_ns = RetryAfterHintNs();
    }
  }

  if (batch_timed) {
    const std::uint64_t t_end = MonotonicNowNs();
    if (timed) {
      instruments_->batch_ns.Record(t_end - t_start);
      // Every request in the batch returns with the batch, so its observed
      // end-to-end latency is the batch envelope.
      instruments_->request_ns.RecordMany(t_end - t_start, requests.size());
      instruments_->admission_ns.Record(t_admitted - t_start);
      instruments_->dedup_fold_ns.Record(t_folded - t_admitted);
      instruments_->scatter_ns.Record(t_end - t_joined);
    }
    // Finalize and publish the sampled traces: close the envelope, attach
    // the disposition, compute the scatter span (which for misses includes
    // the join wait for slower batch siblings), and strip the nested
    // plan_compile time out of cache_wait.
    for (std::size_t u = 0; u < units.size(); ++u) {
      Unit& unit = units[u];
      if (!unit.traced) continue;
      obs::TraceRecord& trace = unit.trace;
      trace.end_ns = t_end;
      if (resolved[u] != nullptr) {
        trace.cache_hit = true;
        trace.status_code = static_cast<std::uint8_t>(StatusCode::kOk);
        trace.stage_ns[StageIdx(obs::Stage::kScatter)] = t_end - t_folded;
      } else {
        const Outcome& outcome = outcomes[outcome_of[u]];
        trace.status_code = static_cast<std::uint8_t>(outcome.status.code());
        trace.approximate = outcome.approximate;
        trace.stage_ns[StageIdx(obs::Stage::kScatter)] =
            t_end - unit.worker_end_ns;
      }
      std::uint64_t& cache_wait =
          trace.stage_ns[StageIdx(obs::Stage::kCacheWait)];
      cache_wait -= std::min(
          cache_wait, trace.stage_ns[StageIdx(obs::Stage::kPlanCompile)]);
      tracer_.Publish(trace);
    }
  }
  return responses;
}

ServerStats Server::Snapshot() const {
  ServerStats stats;
  stats.plan_cache = plan_cache_.stats();
  stats.result_cache = result_cache_.stats();
  stats.circuit_cache = circuit_cache_.stats();
  stats.hard_cache = hard_cache_.stats();
  stats.requests = instruments_->requests.Value();
  stats.batches = instruments_->batches.Value();
  stats.batch_deduped = instruments_->batch_deduped.Value();
  stats.sweep_requests = instruments_->sweep_requests.Value();
  stats.sweep_points = instruments_->sweep_points.Value();
  stats.hard_requests = instruments_->hard_requests.Value();
  stats.hard_batches = instruments_->hard_batches.Value();
  stats.hard_samples = instruments_->hard_samples.Value();
  stats.hard_target_met = instruments_->hard_target_met.Value();
  stats.hard_deadline_limited = instruments_->hard_deadline_limited.Value();
  stats.consensus_requests = instruments_->consensus_requests.Value();
  stats.circuit_compiles = instruments_->circuit_compiles.Value();
  stats.compile_ns = instruments_->compile_ns.Value();
  stats.execute_ns = instruments_->execute_ns.Value();
  stats.circuit_compile_ns = instruments_->circuit_compile_ns.Value();
  stats.circuit_eval_ns = instruments_->circuit_eval_ns.Value();
  stats.store_hits = instruments_->store_hits.Value();
  stats.store_misses = instruments_->store_misses.Value();
  stats.store_corrupt = instruments_->store_corrupt.Value();
  stats.store_load_ns = instruments_->store_load_ns.Value();
  stats.store_writes = instruments_->store_writes.Value();
  stats.in_flight = in_flight_.load(std::memory_order_relaxed);
  stats.in_flight_peak = in_flight_peak_.load(std::memory_order_relaxed);
  stats.shed = instruments_->shed.Value();
  stats.invalid = instruments_->invalid.Value();
  stats.deadline_exceeded = instruments_->deadline_exceeded.Value();
  stats.cancelled = instruments_->cancelled.Value();
  stats.degraded = instruments_->degraded.Value();
  stats.internal_errors = instruments_->internal_errors.Value();
  return stats;
}

void Server::SyncScrapeGauges() const {
  Instruments& in = *instruments_;
  in.in_flight.Set(
      static_cast<std::int64_t>(in_flight_.load(std::memory_order_relaxed)));
  in.in_flight_peak.Set(static_cast<std::int64_t>(
      in_flight_peak_.load(std::memory_order_relaxed)));
  const CacheStats plan = plan_cache_.stats();
  in.plan_cache_hits.Set(static_cast<std::int64_t>(plan.hits));
  in.plan_cache_misses.Set(static_cast<std::int64_t>(plan.misses));
  in.plan_cache_insertions.Set(static_cast<std::int64_t>(plan.insertions));
  in.plan_cache_evictions.Set(static_cast<std::int64_t>(plan.evictions));
  const CacheStats result = result_cache_.stats();
  in.result_cache_hits.Set(static_cast<std::int64_t>(result.hits));
  in.result_cache_misses.Set(static_cast<std::int64_t>(result.misses));
  in.result_cache_insertions.Set(static_cast<std::int64_t>(result.insertions));
  in.result_cache_evictions.Set(static_cast<std::int64_t>(result.evictions));
  const CacheStats circuit = circuit_cache_.stats();
  in.circuit_cache_hits.Set(static_cast<std::int64_t>(circuit.hits));
  in.circuit_cache_misses.Set(static_cast<std::int64_t>(circuit.misses));
  in.circuit_cache_insertions.Set(
      static_cast<std::int64_t>(circuit.insertions));
  in.circuit_cache_evictions.Set(
      static_cast<std::int64_t>(circuit.evictions));
  const CacheStats hard = hard_cache_.stats();
  in.hard_cache_hits.Set(static_cast<std::int64_t>(hard.hits));
  in.hard_cache_misses.Set(static_cast<std::int64_t>(hard.misses));
  in.hard_cache_insertions.Set(static_cast<std::int64_t>(hard.insertions));
  in.hard_cache_evictions.Set(static_cast<std::int64_t>(hard.evictions));
  in.traces_published.Set(
      static_cast<std::int64_t>(tracer_.total_published()));
  if (options_.store != nullptr) {
    const store::StoreStats st = options_.store->stats();
    in.store_records.Set(static_cast<std::int64_t>(st.records));
    in.store_segments.Set(static_cast<std::int64_t>(st.segments));
    in.store_mapped_bytes.Set(static_cast<std::int64_t>(st.mapped_bytes));
    in.store_disk_bytes.Set(static_cast<std::int64_t>(st.disk_bytes));
    in.store_last_flush_age_ns.Set(
        static_cast<std::int64_t>(st.last_flush_age_ns));
  }
}

namespace {

/// A server with a private registry scrapes the process-wide registry too
/// (the DP engine / PPD counters); one publishing into an injected registry
/// scrapes only that, so embedders control the aggregation.
obs::MetricsSnapshot Combine(obs::MetricsSnapshot mine,
                             bool include_process_wide) {
  if (include_process_wide) {
    obs::MetricsSnapshot process = obs::MetricsRegistry::Default().Snapshot();
    for (obs::MetricSample& sample : process.samples) {
      mine.samples.push_back(std::move(sample));
    }
    std::sort(mine.samples.begin(), mine.samples.end(),
              [](const obs::MetricSample& a, const obs::MetricSample& b) {
                return a.name < b.name;
              });
  }
  return mine;
}

}  // namespace

std::string Server::ScrapeMetrics() const {
  SyncScrapeGauges();
  return obs::RenderPrometheus(
      Combine(registry_->Snapshot(),
              owned_registry_ != nullptr &&
                  registry_ != &obs::MetricsRegistry::Default()));
}

std::string Server::ScrapeMetricsJson() const {
  SyncScrapeGauges();
  return obs::RenderJson(
      Combine(registry_->Snapshot(),
              owned_registry_ != nullptr &&
                  registry_ != &obs::MetricsRegistry::Default()));
}

std::vector<obs::TraceRecord> Server::DumpTraces() const {
  return tracer_.Snapshot();
}

std::string Server::DumpTracesJson() const {
  return obs::RenderTracesJson(tracer_.Snapshot());
}

void Server::ClearCaches() {
  plan_cache_.Clear();
  result_cache_.Clear();
  circuit_cache_.Clear();
  hard_cache_.Clear();
}

}  // namespace ppref::serve
