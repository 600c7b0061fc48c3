/// \file server.h
/// \brief `ppref::serve` — the embeddable query-serving layer.
///
/// A `Server` turns the library's per-call inference API into a session
/// engine for the workload the paper's production framing implies: many
/// similar pattern queries against a fixed fleet of RIM models. It amortizes
/// work at two levels:
///
///  1. **Plan cache** (sharded LRU): compiled `DpPlan`s keyed by the content
///     fingerprint of (model, pattern, tracked). A hit skips the
///     γ-independent compilation entirely; PR-2's compile-once / run-many
///     split now pays off *across* calls, not just within one. Concurrent
///     misses on one key coalesce into a single compilation (single-flight).
///  2. **Result cache** (sharded LRU): full `(model, pattern, tracked,
///     kind) → answer` memoization. A hit skips the DP execution too. Only
///     exact answers are ever cached — approximate (degraded) answers are
///     recomputed per request, reproducibly (see below).
///  3. **Circuit cache** (sharded LRU): arithmetic circuits compiled from
///     safe plans, keyed on (model *structure*, labeling, pattern) with the
///     insertion probabilities Π deliberately excluded from the key. A
///     parameter sweep (`PatternProbSweep`) compiles once and re-binds the
///     circuit per parameter vector — every point after the first skips
///     both plan compilation and the DP scan, and each point's answer is
///     bit-identical to a fresh DP run at that Π.
///  4. **Hard cache** (sharded LRU): the hard tier's adaptive Monte-Carlo
///     estimates and consensus rankings (`HardPatternProb`,
///     `HardPatternProbBatch`, `ConsensusTopK`), keyed on the request
///     fingerprint *and* the full sampling configuration. Only answers that
///     are exact functions of the seed (precision target met, or the sample
///     cap) are inserted; deadline-limited answers are honest but
///     wall-clock dependent and never cached.
///
/// `EvaluateBatch` additionally dedups identical requests *within* a batch,
/// fans the unique work over a worker pool, and scatters answers back in
/// request order.
///
/// ## Fault tolerance
/// `Evaluate` / `EvaluateBatch` are the *serving boundary*: they never abort
/// or throw on bad input or overload; every request gets a terminal
/// `Response::status`:
///
///  - malformed requests (null pointers, labels matching no item, a model
///    too large for the DP's 16-bit positions) → `kInvalidArgument`;
///  - admission control: when `ServerOptions::max_in_flight` is set and the
///    server is full, excess requests are shed with `kResourceExhausted`
///    and a `retry_after_ns` hint instead of growing the in-flight set;
///  - per-request deadlines (`Request::control.deadline_ns`, falling back
///    to `ServerOptions::default_deadline_ns`) stop the DP mid-scan with
///    bounded latency → `kDeadlineExceeded`;
///  - caller cancellation via a shared `CancellationToken` → `kCancelled`;
///  - anything unexpected escaping the engine → `kInternal`.
///
/// With `ServerOptions::degradation = kMonteCarlo`, deadline and size-limit
/// failures degrade to a seeded Monte-Carlo estimate: the response keeps its
/// non-OK status but carries `approximate = true`, the estimate, and its
/// standard error — callers always get *an* answer with honest error bars.
/// The sampler is seeded from the request fingerprint, so repeating the
/// request reproduces the identical approximate answer.
///
/// ## Determinism guarantee
/// Every *exact* answer is bit-identical to what a fresh per-request serial
/// call of the underlying `infer::` function would return: the caches
/// memoize pure functions of the request fingerprint, the batch fan-out
/// uses the ordered (bit-identical) reduction of `infer/`, and dedup only
/// shares answers between byte-equal requests. Caching, batching, and
/// thread count are invisible in the output — only in the latency.
/// Approximate answers are deterministic in the request fingerprint and
/// sample budget (never in the thread count), and are never cached.
///
/// ## Thread safety
/// All entry points may be called concurrently from any number of threads;
/// the caches are internally synchronized (per-shard mutexes) and plans are
/// immutable after compilation (per-thread `Scratch` holds all mutable DP
/// state).
///
/// Models and patterns are *borrowed for the duration of a call* and copied
/// into any cache entry that outlives it, so callers may destroy their
/// inputs as soon as the call returns.

#ifndef PPREF_SERVE_SERVER_H_
#define PPREF_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "ppref/common/deadline.h"
#include "ppref/common/status.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/matching.h"
#include "ppref/infer/pattern.h"
#include "ppref/obs/metrics.h"
#include "ppref/obs/trace.h"
#include "ppref/rim/ranking.h"
#include "ppref/serve/lru_cache.h"
#include "ppref/serve/stats.h"

namespace ppref::store {
class Store;
}

namespace ppref::serve {

/// Server tuning knobs.
struct ServerOptions {
  /// Total compiled-plan budget. Plans are the expensive entries (a plan
  /// owns copies of its model and pattern); size this to the working set of
  /// distinct (model, pattern, tracked) triples.
  std::size_t plan_cache_capacity = 256;
  /// Total memoized-answer budget. Answers are tiny; size generously.
  std::size_t result_cache_capacity = 8192;
  /// Total compiled-circuit budget. A circuit's arena is proportional to
  /// the DP's state count summed over candidates — comparable to one DP
  /// run's footprint per entry; size to the working set of distinct
  /// (model structure, labeling, pattern) sweep shapes.
  std::size_t circuit_cache_capacity = 64;
  /// Shards per cache (rounded up to a power of two).
  unsigned cache_shards = 8;
  /// Worker threads for the batch fan-out. 0 = auto; clamped to hardware
  /// concurrency (ppref::ClampThreads).
  unsigned threads = 0;
  /// Matching-level parallelism *within* one request (PatternProbOptions::
  /// threads). Batch fan-out already saturates the cores, so nesting
  /// defaults off; raise it for servers handling few, large requests.
  unsigned matching_threads = 1;

  /// Default per-request deadline in nanoseconds, applied when a request
  /// does not set its own. 0 = no deadline.
  std::uint64_t default_deadline_ns = 0;
  /// Admission limit: the maximum number of requests being served at once
  /// across all entry points. Requests beyond the limit are shed with
  /// kResourceExhausted and a retry-after hint. 0 = unbounded.
  std::size_t max_in_flight = 0;
  /// Size guard: patterns with more nodes are refused (kResourceExhausted)
  /// or degraded to Monte-Carlo, per `degradation`. The DP is exponential
  /// in pattern size, so this is the "query too hard" limit. 0 = unlimited.
  unsigned max_pattern_nodes = 0;

  /// What to do when a request hits its deadline or the size guard.
  enum class Degradation : std::uint8_t {
    /// Fail the request with its error status and no answer.
    kNone,
    /// Serve a Monte-Carlo estimate with a standard error instead: the
    /// response keeps the non-OK status but gains `approximate = true`.
    /// Deterministic per request fingerprint (seeded sampling); never
    /// cached.
    kMonteCarlo,
  };
  Degradation degradation = Degradation::kNone;
  /// Sample budget of one Monte-Carlo fallback.
  unsigned degraded_samples = 4096;

  // Hard-query tier (ppref/hard/): variance-adaptive Monte Carlo with a
  // precision target, pooled world sharing, and consensus rankings.

  /// Total hard-tier answer budget (adaptive estimates and consensus
  /// rankings share one cache). Entries are small; consensus entries hold
  /// one length-m ranking.
  std::size_t hard_cache_capacity = 1024;
  /// CI half-width target applied when a hard request does not name its
  /// own (callers pass <= 0 for "server default"). <= 0 disables the
  /// precision stop: every hard run spends hard_max_samples.
  double hard_default_target = 0.01;
  /// Normal quantile of the hard tier's confidence interval (two-sided 95%).
  double hard_z = 1.959963984540054;
  /// The precision stop is not evaluated below this many samples.
  unsigned hard_min_samples = 256;
  /// Hard sample cap; also fixes the seeded block decomposition.
  unsigned hard_max_samples = 1u << 18;
  /// Samples per seeded block of the hard tier.
  unsigned hard_block_samples = 1024;
  /// Fixed world budget of one consensus ranking (an argmin, not a mean, so
  /// the budget is part of the cache key rather than a stop rule).
  unsigned consensus_samples = 4096;
  /// Size guard for consensus queries: the exact footrule aggregation is
  /// O(m³), so models with more items are refused (kResourceExhausted).
  /// 0 = unlimited.
  unsigned max_consensus_items = 256;

  /// Optional persistent store (ppref/store/) backing all three caches.
  /// Borrowed; must outlive the server. When set, a cache miss consults the
  /// store before computing (mmap-served records make a restarted server
  /// warm from disk), and freshly computed plans / circuits / exact results
  /// are written behind for the next restart. A store record that fails to
  /// decode counts as a miss plus a corruption counter — never an error on
  /// the serving path. nullptr (the default) preserves the purely
  /// in-memory behavior bit for bit.
  store::Store* store = nullptr;

  // Observability (see ppref/obs/):

  /// Instrument registry to publish into. Borrowed; must outlive the
  /// server. nullptr (the default) gives the server a private registry —
  /// the right choice for tests and for embedding several servers whose
  /// metrics must not merge. Pass &obs::MetricsRegistry::Default() to fold
  /// the server into the process-wide scrape.
  obs::MetricsRegistry* registry = nullptr;
  /// Record per-stage and end-to-end latency histograms. Counters (request
  /// and disposition totals, compile/execute nanoseconds) are always on —
  /// they are the `ServerStats` surface and cost one relaxed add each, the
  /// same as before the obs layer existed. Histograms add a few clock reads
  /// per served batch; disable only to shave the last fraction of a percent
  /// off a saturated warm path.
  bool latency_histograms = true;
  /// Request-tracing sampling rate in 1/10000ths (100 = 1%). Sampling is
  /// deterministic per request fingerprint; 0 (the default) reduces the
  /// whole tracing path to a null check.
  unsigned trace_sample_permyriad = 0;
  /// Bound on retained trace records (oldest overwritten).
  std::size_t trace_capacity = 1024;
};

/// Per-request stop conditions, embedded in `Request`.
struct RequestControl {
  /// Deadline budget in nanoseconds, measured from batch admission.
  /// 0 = use the server's default_deadline_ns.
  std::uint64_t deadline_ns = 0;
  /// Optional borrowed cancellation token; must stay alive until the
  /// submitting call returns. Firing it ends the request with kCancelled.
  const CancellationToken* cancel = nullptr;
};

/// One inference request against a borrowed model and pattern.
struct Request {
  enum class Kind : std::uint8_t {
    /// Pr(g | σ, Π, λ) — answers `Response::probability`.
    kPatternProb,
    /// argmax_γ p_γ — answers `Response::top_matching` (and `probability`
    /// with the winning p_γ, 0 when no candidate has positive mass).
    kTopMatching,
  };
  Kind kind = Kind::kPatternProb;
  /// Borrowed; must stay alive until the submitting call returns.
  const infer::LabeledRimModel* model = nullptr;
  const infer::LabelPattern* pattern = nullptr;
  /// Deadline / cancellation; default = server defaults, no token.
  RequestControl control;
};

/// The answer to one request, in the submitting batch's order.
struct Response {
  /// Terminal disposition; the numeric fields below are meaningful for
  /// kOk, and for non-OK statuses only when `approximate` is set.
  Status status;
  double probability = 0.0;
  /// Set for kTopMatching when some candidate has positive probability.
  std::optional<infer::Matching> top_matching;
  /// True when this answer is a Monte-Carlo fallback (degradation policy);
  /// `std_error` then carries its standard error.
  bool approximate = false;
  double std_error = 0.0;
  /// For shed requests (kResourceExhausted from admission control): a
  /// heuristic backoff hint — the server's observed mean per-request cost.
  std::uint64_t retry_after_ns = 0;
};

/// A hard-tier answer: an adaptive Monte-Carlo estimate with the error it
/// actually achieved and what stopped the sampling.
struct HardEstimate {
  double estimate = 0.0;
  double std_error = 0.0;
  /// Worlds this estimate consumed (a prefix of the seeded block stream).
  std::uint64_t n_samples = 0;
  /// The precision target was reached before the sample cap.
  bool target_met = false;
  /// The deadline budget stopped sampling first; the estimate is honest
  /// (std_error reflects what was achieved) but wall-clock dependent, so it
  /// was not cached and a retry may answer differently.
  bool deadline_limited = false;
};

/// A consensus top-k answer: the footrule-optimal consensus order truncated
/// to k, with the sampled distance statistics to the full consensus.
struct ConsensusAnswer {
  /// Best item first, length min(k, m).
  std::vector<rim::ItemId> ranking;
  /// Mean footrule distance of a sampled world to the consensus, with the
  /// standard error of that mean; same under Kendall's tau.
  double mean_footrule = 0.0;
  double footrule_std_error = 0.0;
  double mean_kendall = 0.0;
  double kendall_std_error = 0.0;
  std::uint64_t n_samples = 0;
};

/// A concurrent query server over the exact inference engine. See the file
/// comment for the caching, determinism, fault-tolerance, and thread-safety
/// contracts.
class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serves one request through the full fault-tolerant pipeline
  /// (validation, admission, deadline, degradation). Never throws; the
  /// response's status is the single source of truth.
  Response Evaluate(const Request& request);

  /// Parameter sweep: Pr(g | σ, Π_i, λ) for every parameter vector in
  /// `params`, against one cached circuit. Each element of `params` is
  /// either a single dispersion {φ} (a Mallows insertion model) or m
  /// per-step dispersions {φ_1..φ_m} (generalized Mallows); every φ must
  /// lie in (0, 1]. The circuit is compiled from the (cached or freshly
  /// compiled) plan on the first sweep of this (model structure, labeling,
  /// pattern) shape and re-bound per point afterwards; each answer is
  /// bit-identical to a fresh serial DP run at that parameter vector.
  ///
  /// Full serving-boundary contract: never throws; validation errors,
  /// admission shedding, deadlines, and cancellation all come back as the
  /// returned status. Sweep answers bypass the result cache (their keys
  /// would embed Π); only the circuit and plan caches amortize.
  StatusOr<std::vector<double>> PatternProbSweep(
      const infer::LabeledRimModel& model, const infer::LabelPattern& pattern,
      const std::vector<std::vector<double>>& params,
      const RequestControl& control = {});

  /// Hard tier: Pr(g | σ, Π, λ) by variance-adaptive seeded Monte Carlo
  /// (ppref/hard/), for patterns past the exact DP's budget. Sampling stops
  /// once the `z · std_error` CI half-width reaches `target_half_width`
  /// (<= 0 = the server's hard_default_target), at the sample cap, or —
  /// honestly, with the wider error actually achieved — when the request's
  /// deadline expires between sampling rounds. The request's deadline also
  /// *coarsens* the effective target deterministically (a near-dead
  /// deadline buys a cheaper answer), so a repeated request reproduces the
  /// identical estimate. Deterministic answers (target met or cap) are
  /// cached; deadline-limited ones never are.
  ///
  /// Full serving-boundary contract: never throws; validation, admission
  /// shedding, and cancellation come back as the returned status.
  StatusOr<HardEstimate> HardPatternProb(const infer::LabeledRimModel& model,
                                         const infer::LabelPattern& pattern,
                                         double target_half_width = 0.0,
                                         const RequestControl& control = {});

  /// The pooled form: adaptive estimates for every pattern in `patterns`
  /// against *one shared stream* of sampled worlds (each world is drawn
  /// once and evaluated against every still-unconverged query). Every
  /// element is bit-identical to the corresponding HardPatternProb answer —
  /// the world stream is seeded from the model alone, and each query's
  /// stopping decision is query-local — so pooled and solo answers share
  /// cache entries. Answers come back in input order.
  StatusOr<std::vector<HardEstimate>> HardPatternProbBatch(
      const infer::LabeledRimModel& model,
      const std::vector<const infer::LabelPattern*>& patterns,
      double target_half_width = 0.0, const RequestControl& control = {});

  /// Consensus top-k: the ranking minimizing the expected Spearman-footrule
  /// distance to a random world of the model (exact on the sampled
  /// empirical distribution — Hungarian assignment, no heuristic), truncated
  /// to the best `top_k` items, with sampled footrule and Kendall distance
  /// statistics. Deterministic in (model, server sampling options); the full
  /// consensus is cached, so asking for different k re-truncates a hit.
  StatusOr<ConsensusAnswer> ConsensusTopK(const infer::LabeledRimModel& model,
                                          unsigned top_k,
                                          const RequestControl& control = {});

  /// Serves a batch: admits up to the in-flight budget (shedding the rest),
  /// validates each request, dedups byte-identical requests, resolves
  /// result-cache hits, fans the remaining unique work over the worker
  /// pool, and returns answers in request order — exactly one terminal
  /// status per request, no silent drops. Exact answers are bit-identical
  /// to issuing each request alone (see the determinism guarantee). Never
  /// throws.
  std::vector<Response> EvaluateBatch(const std::vector<Request>& requests);

  /// Consistent point-in-time statistics. Every `Evaluate*` call joins its
  /// workers before returning, so a snapshot taken after the submitting
  /// calls have returned observes all of their updates — the right way to
  /// read an end-of-run summary (reading the counters while workers still
  /// publish only has monitoring consistency).
  ServerStats Snapshot() const;

  /// Point-in-time statistics snapshot (alias of Snapshot()).
  ServerStats stats() const { return Snapshot(); }

  /// Prometheus text exposition (format 0.0.4) of this server's
  /// instruments, followed by the process-wide registry (the DP engine and
  /// PPD counters) when the server publishes to a private registry.
  std::string ScrapeMetrics() const;

  /// The same instruments as a JSON object with precomputed p50/p95/p99.
  std::string ScrapeMetricsJson() const;

  /// The retained trace records, oldest first. Tracing is enabled by
  /// `ServerOptions::trace_sample_permyriad`.
  std::vector<obs::TraceRecord> DumpTraces() const;

  /// DumpTraces() rendered as JSON.
  std::string DumpTracesJson() const;

  /// The server's instrument registry (its own unless one was injected).
  obs::MetricsRegistry& registry() const { return *registry_; }

  /// Drops all four caches — plan, result, circuit and hard — and their
  /// counters (not the request counters).
  void ClearCaches();

  const ServerOptions& options() const { return options_; }

 private:
  struct CachedPlan;
  struct CachedResult;
  struct CachedCircuit;
  struct CachedHard;
  struct Outcome;
  struct Unit;
  struct Instruments;
  struct Scope;

  /// Request validation for the status entry points; Ok or kInvalidArgument.
  Status Validate(const Request& request) const;

  /// Claims up to `want` in-flight slots against max_in_flight (all of them
  /// when unbounded); returns how many were granted and maintains the peak
  /// watermark. Pair with AdmissionRelease.
  std::size_t TryAdmit(std::size_t want);

  /// RAII release of TryAdmit'ed slots.
  class AdmissionRelease;

  /// Heuristic retry-after hint: observed mean per-request busy time.
  std::uint64_t RetryAfterHintNs() const;

  /// Runs `body`, mapping what it throws to a terminal status and counting
  /// it: cancellation → kCancelled, deadline → kDeadlineExceeded, anything
  /// else → kInternal ("unknown exception during `what`" when it is not a
  /// std::exception). Ok when `body` returns normally. Never throws.
  template <typename Body>
  Status Guard(const char* what, Body&& body);

  /// The serving envelope of the single-call modalities (sweep, hard,
  /// consensus), entered after the modality's own validation: claims one
  /// admission slot (shedding with a retry-after hint when full), resolves
  /// the deadline into a `Scope`, runs `body(scope)` under Guard, and
  /// publishes the trace the body started on success. `body` returns the
  /// answer (a T) and does the modality's cache probe and compute.
  template <typename T, typename Body>
  StatusOr<T> Serve(const RequestControl& control, const char* what,
                    Body&& body);

  /// Starts the scope's trace when the tracer samples `fingerprint`.
  void StartTrace(Scope& scope, std::uint64_t fingerprint);

  /// Result-cache probe (respects forced-miss fault injection). On an LRU
  /// miss with a store configured, consults the store and promotes a decoded
  /// record into the cache.
  std::shared_ptr<const CachedResult> LookupResult(std::uint64_t result_key);

  // Store integration (no-ops when options_.store is null). The Load*
  // helpers return nullptr on miss or failed decode — the caller computes
  // as if the store did not exist.
  std::shared_ptr<const CachedPlan> LoadPlanFromStore(
      std::uint64_t plan_key, obs::TraceRecord* trace);
  std::shared_ptr<const CachedCircuit> LoadCircuitFromStore(
      std::uint64_t circuit_key, obs::TraceRecord* trace);
  /// Write-behind of one exact answer.
  void StoreResult(std::uint64_t result_key, const CachedResult& result);

  /// Looks up or compiles the plan for (model, pattern, tracked), timing
  /// compilation into the compile instruments. Single-flight per key; a
  /// non-null `control` bounds both the compile and the wait for another
  /// thread's compile (throws DeadlineExceededError / CancelledError). A
  /// non-null `trace` receives the plan_compile / cache_wait spans.
  std::shared_ptr<const CachedPlan> PlanFor(
      const infer::LabeledRimModel& model, const infer::LabelPattern& pattern,
      const std::vector<infer::LabelId>& tracked, std::uint64_t plan_key,
      const RunControl* control, obs::TraceRecord* trace);

  /// Looks up or compiles the circuit for (model structure, labeling,
  /// pattern), going through PlanFor for the underlying plan (so a sweep
  /// warms the plan cache too). Single-flight per key; timed into the
  /// circuit-compile instruments. Throws stop exceptions via `control`.
  std::shared_ptr<const CachedCircuit> CircuitFor(
      const infer::LabeledRimModel& model, const infer::LabelPattern& pattern,
      std::uint64_t circuit_key, const RunControl* control,
      obs::TraceRecord* trace);

  /// Computes one request exactly (plan lookup + DP execution, timed).
  /// Throws DeadlineExceededError / CancelledError via `control`.
  CachedResult Compute(const Request& request, std::uint64_t plan_key,
                       const RunControl* control, obs::TraceRecord* trace);

  /// Compute wrapped in the failure policy: maps stop exceptions through
  /// Guard, applies the degradation policy, returns a terminal Outcome. Never
  /// throws. `deadline_ns` is the request's resolved deadline *value* (0 =
  /// none) — the degradation fallback derives its precision target from it.
  Outcome ComputeGuarded(const Request& request, std::uint64_t plan_key,
                         std::uint64_t result_key, std::uint64_t deadline_ns,
                         const RunControl* control, obs::TraceRecord* trace);

  /// The Monte-Carlo fallback of the degradation policy; `status` is the
  /// triggering (non-OK) status the outcome keeps. Routed through the
  /// adaptive estimator: `deadline_ns` maps to a deterministic precision
  /// target, so a near-dead deadline yields a coarser (wider std_error) but
  /// reproducible answer; 0 reproduces the fixed-budget estimate bit for
  /// bit.
  Outcome Degrade(const Request& request, std::uint64_t result_key,
                  std::uint64_t deadline_ns, Status status,
                  obs::TraceRecord* trace);

  /// The effective hard-tier precision target of one request: the caller's
  /// target (or hard_default_target), coarsened by the deadline floor. A
  /// pure function of its arguments — it feeds both the sampler and the
  /// hard cache key.
  double EffectiveHardTarget(double target_half_width,
                             std::uint64_t deadline_ns) const;

  /// The hard tier's sampling seed: a pure function of the model and the
  /// block decomposition only (never of the pattern), so every query over
  /// one model — solo or pooled — consumes the identical world stream.
  std::uint64_t HardSeed(const infer::LabeledRimModel& model) const;

  /// The per-query hard cache key: plan key (model, pattern) mixed with the
  /// full sampling configuration.
  std::uint64_t HardKey(std::uint64_t plan_key, double effective_target) const;

  /// Refreshes the scrape-time gauges (in-flight depth, cache counters,
  /// trace totals) from their sources.
  void SyncScrapeGauges() const;

  ServerOptions options_;
  /// options_.threads resolved through ppref::ClampThreads once, at
  /// construction — the single clamping point for the batch fan-out.
  unsigned effective_threads_;
  ShardedLruCache<CachedPlan> plan_cache_;
  ShardedLruCache<CachedResult> result_cache_;
  ShardedLruCache<CachedCircuit> circuit_cache_;
  ShardedLruCache<CachedHard> hard_cache_;

  /// Owned when options_.registry is null.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;
  /// Registry-backed instruments (counters, gauges, histograms); the
  /// `ServerStats` accessors read these.
  std::unique_ptr<Instruments> instruments_;
  obs::Tracer tracer_;

  /// In-flight depth and its high-water mark stay raw atomics: admission
  /// control CASes against `in_flight_`, which an instrument API has no
  /// business exposing. They are mirrored into gauges on scrape.
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> in_flight_peak_{0};
};

}  // namespace ppref::serve

#endif  // PPREF_SERVE_SERVER_H_
