/// \file main.cc
/// \brief ppbench: one workload, one seed, one timed window.
///
/// Usage (normally through ppbench/run.py, which builds this binary):
///   ppbench --workload NAME --seed N --seconds S --trace 0|1
///           --served PATH --dir DIR [--git-sha SHA] [--source-sha SHA]
///           [--plant-wrong-oracle]
///
/// --trace 0 measures the end-to-end metrics: it sets the workload up
/// kSetups times (reporting the median set-up time), reads the serving
/// process's peak resident set after the first set-up has served a fixed
/// number of requests, runs the closed loop on the last set-up for S
/// seconds, then checks the answers. --trace 1
/// reports the per-layer metrics: a shorter closed-loop window whose
/// daemon counters it scrapes, then an in-process replay of the same seeded
/// inputs with spans around the calls into each layer. The last line of
/// standard output is the result as one JSON object.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "daemon.h"
#include "ppref/net/internal/io.h"
#include "trace.h"
#include "workload.h"

namespace ppbench {
namespace {

constexpr int kSetups = 5;
/// Tolerance of the self-time check: the layer spans must cover at least
/// 90% of the traced request latency.
constexpr double kSelfTimeTolerance = 0.10;
/// Timings are reported at a fixed host speed. The shared host's speed
/// drifts within minutes, and the workloads' timings drift with it: over
/// 44 runs of 10 s (11 per workload) on a 4-vCPU VM, during which the
/// reference loop took 3.8 to 5.1 ms, the log of each workload's request
/// rate fell 1.8 to 2.4 times as steeply as the log of the loop's time.
/// Each timing is therefore scaled by (kReferenceMs / loop time)^2, the
/// loop time being ReferenceLoopMs's median of kReferenceRounds rounds
/// before the window averaged with as many after it: it reads as if the
/// loop took kReferenceMs, its typical time on that VM. The loop runs no
/// ppref code, so a slower program still shows at any host speed.
constexpr double kReferenceMs = 5.0;
constexpr int kReferenceRounds = 100;
/// Slices of the timed window; throughput_rps and latency_p99_us are taken
/// over its fast part (see KeepFastPart), which holds at least
/// kTailSamples requests, so that its p99 has at least 10 beyond it.
constexpr std::size_t kSlices = 40;
constexpr std::size_t kTailSamples = 1000;
/// A connection gives up after this many failures in a row.
constexpr std::uint64_t kMaxConsecutiveFailures = 100;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json's `end_to_end` metrics.
constexpr MetricSpec kEndToEnd[] = {
    {"throughput_rps", "1/s"},      {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},       {"success_rate", "ratio"},
    {"setup_s", "s"},               {"peak_rss_mb", "MiB"},
    {"store_bytes_per_answer", "bytes"},
};

/// BENCHMARK.json's `per_layer` metrics.
constexpr MetricSpec kPerLayer[] = {
    {"net.ping_rtt_us", "us"},
    {"net.encode_request_us", "us"},
    {"net.decode_request_us", "us"},
    {"net.codec_response_us", "us"},
    {"net.request_bytes", "bytes"},
    {"net.response_bytes", "bytes"},
    {"serve.fingerprint_us", "us"},
    {"serve.evaluate_hit_us", "us"},
    {"serve.result_hit_ratio", "ratio"},
    {"serve.plan_hit_ratio", "ratio"},
    {"serve.circuit_hit_ratio", "ratio"},
    {"serve.batch_dedup_ratio", "ratio"},
    {"serve.queue_p50_us", "us"},
    {"infer.plan_compile_us", "us"},
    {"infer.dp_execute_us", "us"},
    {"infer.dp_states_per_request", "count"},
    {"infer.dp_steps_per_request", "count"},
    {"infer.ns_per_state", "ns"},
    {"circuit.compile_ms", "ms"},
    {"circuit.eval_us_per_point", "us"},
    {"circuit.nodes_per_circuit", "count"},
    {"hard.estimate_ms", "ms"},
    {"hard.worlds_per_estimate", "count"},
    {"hard.ns_per_world", "ns"},
    {"hard.consensus_ms", "ms"},
    {"store.put_us", "us"},
    {"store.flush_ms", "ms"},
    {"store.writes_per_request", "count"},
    {"query.parse_us", "us"},
    {"query.classify_us", "us"},
    {"ppd.reduce_us", "us"},
    {"ppd.sessions_per_query", "count"},
    {"ppd.unique_requests_per_query", "count"},
    {"obs.bench_trace_overhead_pct", "%"},
};

const char* const kWorkloads[] = {"hot_hits", "cold_exact", "analytics_mix",
                                  "ppd_cq"};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Env& env) {
  if (name == "hot_hits") return MakeHotHits(env);
  if (name == "cold_exact") return MakeColdExact(env);
  if (name == "analytics_mix") return MakeAnalyticsMix(env);
  if (name == "ppd_cq") return MakePpdCq(env);
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string served;
  std::string dir;
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
  bool plant_wrong_oracle = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-wrong-oracle") {
      args->plant_wrong_oracle = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--served") {
      args->served = value;
    } else if (flag == "--dir") {
      args->dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-sha") {
      args->source_sha = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->served.empty() &&
         !args->dir.empty() && args->seconds > 0;
}

/// One answered request: when it completed (seconds into the window) and
/// its client-observed round trip.
struct Sample {
  double end_s;
  double latency_us;
};

/// The closed loop's outcome; samples in completion order.
struct Load {
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double window_s = 0;
};

/// Runs one thread per connection, each sending its next request as soon
/// as the previous one is answered, for `seconds` or, when `seconds` is 0,
/// until each connection has sent `requests`.
Load ClosedLoop(Workload& workload, double seconds,
                std::uint64_t requests = UINT64_MAX) {
  const unsigned connections = workload.Connections();
  std::atomic<bool> stop{false};
  std::vector<Load> per_connection(connections);
  std::vector<std::thread> threads;
  const double start = NowSeconds();
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Load& load = per_connection[c];
      std::uint64_t consecutive_failures = 0;
      for (std::uint64_t index = 0;
           index < requests && !stop.load(std::memory_order_relaxed) &&
           consecutive_failures < kMaxConsecutiveFailures;
           ++index) {
        std::uint64_t rtt_ns = 0;
        const bool ok = workload.Call(c, index, &rtt_ns);
        load.attempted += 1;
        load.failed += !ok;
        consecutive_failures = ok ? 0 : consecutive_failures + 1;
        if (ok) {
          load.samples.push_back(
              {NowSeconds() - start, static_cast<double>(rtt_ns) / 1e3});
        }
      }
    });
  }
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop = true;
  }
  for (std::thread& thread : threads) thread.join();
  Load total;
  total.window_s = NowSeconds() - start;
  for (const Load& load : per_connection) {
    total.attempted += load.attempted;
    total.failed += load.failed;
    total.samples.insert(total.samples.end(), load.samples.begin(),
                         load.samples.end());
  }
  std::sort(total.samples.begin(), total.samples.end(),
            [](const Sample& a, const Sample& b) { return a.end_s < b.end_s; });
  return total;
}

/// The fast part of the window: the window cut into kSlices slices of
/// equal duration, of which the fastest quarter (the slices with the most
/// completions) is kept, widened by the next fastest until it holds at
/// least kTailSamples requests. This is what the program does while the
/// shared host lets it run: a slower program lowers every slice, a host
/// stall only the slices it hits, which are then left out. The median
/// latency is taken over the whole window: a stall moves it only by the
/// few requests it delays, while picking slices would make it jump between
/// the host's fast and slow spells.
struct FastPart {
  std::size_t slices = 0;
  double seconds = 0;
  std::vector<double> latencies;
};

FastPart KeepFastPart(const Load& load) {
  std::vector<std::vector<double>> slices(kSlices);
  for (const Sample& sample : load.samples) {
    const auto k = static_cast<std::size_t>(sample.end_s / load.window_s *
                                            static_cast<double>(kSlices));
    slices[std::min(k, kSlices - 1)].push_back(sample.latency_us);
  }
  std::stable_sort(slices.begin(), slices.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() > b.size();
                   });
  FastPart kept;
  std::size_t k = 0;
  for (; k < kSlices &&
         (k < kSlices / 4 || kept.latencies.size() < kTailSamples);
       ++k) {
    kept.latencies.insert(kept.latencies.end(), slices[k].begin(),
                          slices[k].end());
  }
  kept.slices = k;
  kept.seconds = load.window_s * static_cast<double>(k) /
                 static_cast<double>(kSlices);
  return kept;
}

std::vector<double> Latencies(const Load& load) {
  std::vector<double> latencies;
  latencies.reserve(load.samples.size());
  for (const Sample& sample : load.samples) {
    latencies.push_back(sample.latency_us);
  }
  return latencies;
}

/// Median client-observed `Client::Ping` round trip, in µs.
double PingRttUs(int port) {
  std::unique_ptr<ppref::net::Client> client = ConnectClient(port);
  if (client == nullptr) return 0;
  std::vector<double> us;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t start = ppref::MonotonicNowNs();
    if (!client->Ping().ok()) return 0;
    us.push_back(static_cast<double>(ppref::MonotonicNowNs() - start) / 1e3);
  }
  return Quantile(std::move(us), 0.5);
}

std::string StampJson(const Args& args, const Workload& workload,
                      bool daemon) {
  char buffer[1024];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"source_sha\": \"%s\", "
      "\"server\": \"%s\", \"workers\": %u, \"connections\": %u}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      PPBENCH_COMPILER, PPBENCH_BUILD_TYPE, args.git_sha.c_str(),
      args.source_sha.c_str(), daemon ? "ppref_served" : "in-process",
      kWorkers, workload.Connections());
  return buffer;
}

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricSpec* specs,
                       std::size_t count, const LayerMetrics& values) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name,
                  values.at(specs[i].name), specs[i].unit);
    json += buffer;
  }
  json += "}}";
  return json;
}

/// One set-up of the workload: its daemon (if any) and its clients.
struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<DaemonProcess> daemon;
  std::string dir;
  std::string store_dir;
  double seconds = 0;
};

bool SetUp(const Args& args, const Env& env, int rep, Setup* setup) {
  setup->dir = args.dir + "/" + args.workload + "-" + std::to_string(rep);
  setup->store_dir = setup->dir + "/store";
  RemoveTree(setup->dir);
  std::filesystem::create_directories(setup->dir);
  const double start = NowSeconds();
  setup->workload = MakeWorkload(args.workload, env);
  const std::vector<std::string> flags =
      setup->workload->DaemonFlags(setup->store_dir);
  if (!flags.empty()) {
    std::string error;
    setup->daemon =
        DaemonProcess::Start(args.served, flags, setup->dir, &error);
    if (setup->daemon == nullptr) {
      std::fprintf(stderr, "ppbench: %s\n", error.c_str());
      return false;
    }
  }
  const bool opened = setup->workload->Open(
      setup->daemon != nullptr ? setup->daemon->port() : 0, setup->store_dir);
  setup->seconds = NowSeconds() - start;
  if (!opened) std::fprintf(stderr, "ppbench: set-up failed\n");
  return opened;
}

bool Scrape(const Setup& setup, ppbench::Scrape* out) {
  return setup.daemon != nullptr ? setup.daemon->ScrapeMetrics(out)
                                 : setup.workload->ScrapeInProcess(out);
}

/// Outcome of the timed window plus its checks.
struct Window {
  Load load;
  ppbench::Scrape before;
  ppbench::Scrape after;
  double peak_rss_mb = 0;
  /// The reference loop's time around the window (see kReferenceMs).
  double reference_ms = 0;
  double ping_rtt_us = 0;
  std::size_t wrong = 0;
  bool drained = true;
  double store_bytes = 0;
};

bool RunWindow(const Args& args, Setup& setup, double seconds, Window* w) {
  if (!Scrape(setup, &w->before)) return false;
  const double reference_before = ReferenceLoopMs(kReferenceRounds);
  w->load = ClosedLoop(*setup.workload, seconds);
  w->reference_ms =
      (reference_before + ReferenceLoopMs(kReferenceRounds)) / 2;
  if (!Scrape(setup, &w->after)) return false;
  w->peak_rss_mb = PeakRssMb(setup.daemon != nullptr ? setup.daemon->pid()
                                                     : getpid());
  if (args.trace) {
    if (setup.daemon != nullptr) {
      w->ping_rtt_us = PingRttUs(setup.daemon->port());
    } else {
      // An in-process workload has no daemon of its own; ping a bare one.
      std::string error;
      const std::string dir = setup.dir + "/ping";
      std::filesystem::create_directories(dir);
      std::unique_ptr<DaemonProcess> bare = DaemonProcess::Start(
          args.served, {"--workers", std::to_string(kWorkers)}, dir, &error);
      if (bare != nullptr) w->ping_rtt_us = PingRttUs(bare->port());
    }
  }
  w->wrong = setup.workload->Verify();
  setup.workload->Close();
  if (setup.daemon != nullptr) w->drained = setup.daemon->Stop();
  w->store_bytes = static_cast<double>(DirBytes(setup.store_dir));
  return true;
}

void PrintEndToEnd(const Window& w, const LayerMetrics& m,
                   std::size_t fast_slices) {
  const double error_rate =
      static_cast<double>(w.load.failed + w.wrong) /
      static_cast<double>(std::max<std::uint64_t>(1, w.load.attempted));
  std::printf("\nend-to-end (%zu latency samples, %llu attempted, %llu "
              "failed, %zu wrong answers)\n",
              w.load.samples.size(),
              static_cast<unsigned long long>(w.load.attempted),
              static_cast<unsigned long long>(w.load.failed), w.wrong);
  for (const MetricSpec& spec : kEndToEnd) {
    std::printf("  %-24s %16.4f %s\n", spec.name, m.at(spec.name), spec.unit);
  }
  std::printf("  %-24s %16.6f ratio\n", "error_rate", error_rate);
  const std::vector<double> all = Latencies(w.load);
  std::printf("  throughput and p99 over the fast part of the window (%zu "
              "of %zu slices), p50 over all of it; timings scaled to a "
              "%.1f ms reference loop (it took %.4f ms around the window)\n",
              fast_slices, kSlices, kReferenceMs, w.reference_ms);
  std::printf("  unscaled, over the whole window the rate is %.4f/s, the "
              "p50 %.4f us and the p99 %.4f us; the serving process peaked "
              "at %.4f MiB\n",
              static_cast<double>(all.size()) / w.load.window_s,
              Quantile(all, 0.50), Quantile(all, 0.99), w.peak_rss_mb);
}

/// The end-to-end metrics of an untraced run; `peak_rss_mb` is that of the
/// fixed-work set-up.
LayerMetrics EndToEnd(const Window& w, const std::vector<double>& setups,
                      double peak_rss_mb) {
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(1, w.load.attempted));
  const FastPart fast = KeepFastPart(w.load);
  const double to_reference =
      (kReferenceMs / w.reference_ms) * (kReferenceMs / w.reference_ms);
  LayerMetrics m;
  m["throughput_rps"] =
      static_cast<double>(fast.latencies.size()) / fast.seconds / to_reference;
  m["latency_p50_us"] = Quantile(Latencies(w.load), 0.50) * to_reference;
  m["latency_p99_us"] = Quantile(fast.latencies, 0.99) * to_reference;
  m["success_rate"] =
      1.0 - static_cast<double>(w.load.failed + w.wrong) / attempted;
  m["setup_s"] = Quantile(setups, 0.5) * to_reference;
  m["peak_rss_mb"] = peak_rss_mb;
  // Exact answers the server computed (not served from a cache or the
  // store) over its life: every computed answer looks its plan up once, and
  // every sweep point is evaluated on a circuit.
  const double answers = w.after.Value("ppref_serve_plan_cache_hits") +
                         w.after.Value("ppref_serve_plan_cache_misses") +
                         w.after.Value("ppref_serve_sweep_points_total");
  m["store_bytes_per_answer"] = answers > 0 ? w.store_bytes / answers : 0.0;
  std::printf("store: %.0f bytes on disk, %.0f exact answers computed\n",
              w.store_bytes, answers);
  PrintEndToEnd(w, m, fast.slices);
  return m;
}

/// The per-layer metrics read from the server's counters over the window.
void ServerCounters(const Window& w, LayerMetrics* m) {
  const double requests =
      static_cast<double>(std::max<std::uint64_t>(1, w.load.attempted));
  std::printf("\nserver counters over the window (%.0f requests):\n",
              requests);
  for (const auto& [metric, cache] :
       {std::pair{"serve.result_hit_ratio", "ppref_serve_result_cache"},
        std::pair{"serve.plan_hit_ratio", "ppref_serve_plan_cache"},
        std::pair{"serve.circuit_hit_ratio", "ppref_serve_circuit_cache"}}) {
    double base = 0;
    (*m)[metric] = HitRatio(w.before, w.after, cache, &base);
    std::printf("  %-26s %.4f of %.0f lookups\n", metric, (*m)[metric], base);
  }
  const double served = Delta(w.before, w.after, "ppref_serve_requests_total");
  const double deduped =
      Delta(w.before, w.after, "ppref_serve_batch_deduped_total");
  (*m)["serve.batch_dedup_ratio"] = served > 0 ? deduped / served : 0.0;
  std::printf("  %-26s %.4f of %.0f server requests\n",
              "serve.batch_dedup_ratio", (*m)["serve.batch_dedup_ratio"],
              served);
  (*m)["serve.queue_p50_us"] =
      w.after.P50("ppref_serve_stage_queue_ns") / 1e3;
  (*m)["infer.dp_states_per_request"] =
      Delta(w.before, w.after, "ppref_infer_dp_states_total") / requests;
  (*m)["infer.dp_steps_per_request"] =
      Delta(w.before, w.after, "ppref_infer_dp_steps_total") / requests;
  (*m)["store.writes_per_request"] =
      Delta(w.before, w.after, "ppref_serve_store_writes_total") / requests;
  (*m)["net.ping_rtt_us"] = w.ping_rtt_us;
}

/// In-process replay of the workload's inputs, alternating traced and
/// untraced requests for the tracing overhead; prints the self-time table
/// and writes the spans.
void TracedReplay(const Args& args, const Env& env, const std::string& dir,
                  LayerMetrics* m) {
  Tracer tracer;
  std::unique_ptr<Workload> replay = MakeWorkload(args.workload, env);
  replay->ReplayPrepare(dir);
  double on_s = 0, off_s = 0, on_n = 0, off_n = 0;
  const double deadline = NowSeconds() + args.seconds * 0.4;
  for (std::uint64_t index = 0;
       NowSeconds() < deadline || on_n < 2 || off_n < 2; ++index) {
    const bool traced = index % 2 == 0;
    tracer.set_enabled(traced);
    const double start = NowSeconds();
    replay->ReplayOne(tracer, index);
    (traced ? on_s : off_s) += NowSeconds() - start;
    (traced ? on_n : off_n) += 1;
  }
  replay->ReplayMetrics(tracer, m);
  (*m)["obs.bench_trace_overhead_pct"] =
      100.0 * ((on_s / on_n) / (off_s / off_n) - 1.0);
  tracer.PrintSelfTimeTable("request", kSelfTimeTolerance);
  const std::string spans = args.dir + "/spans-" + args.workload + ".jsonl";
  if (tracer.WriteJsonLines(spans)) {
    std::printf("  %zu spans written to %s\n", tracer.spans().size(),
                spans.c_str());
  }
}

/// Layers this workload does not exercise are measured on a short traced
/// replay of the same seed's inputs of the workloads that do.
void CompanionReplays(const Args& args, const Env& env, const std::string& dir,
                      LayerMetrics* m) {
  for (const char* other : kWorkloads) {
    if (args.workload == other) continue;
    Tracer tracer;
    tracer.set_enabled(true);
    std::unique_ptr<Workload> companion = MakeWorkload(other, env);
    companion->ReplayPrepare(dir);
    const double until = NowSeconds() + args.seconds * 0.05;
    for (std::uint64_t index = 0; index < 16 || NowSeconds() < until;
         ++index) {
      companion->ReplayOne(tracer, index);
    }
    LayerMetrics measured;
    companion->ReplayMetrics(tracer, &measured);
    for (const auto& [name, value] : measured) {
      if (m->emplace(name, value).second) {
        std::printf("  %-30s from a %s replay\n", name.c_str(), other);
      }
    }
  }
}

/// Prints the per-layer metrics; false when one is missing.
bool PrintPerLayer(const LayerMetrics& m) {
  std::printf("\nper-layer metrics:\n");
  bool complete = true;
  for (const MetricSpec& spec : kPerLayer) {
    const auto it = m.find(spec.name);
    if (it == m.end()) {
      std::printf("  %-30s MISSING\n", spec.name);
      complete = false;
    } else {
      std::printf("  %-30s %16.4f %s\n", spec.name, it->second, spec.unit);
    }
  }
  return complete;
}

/// Keeps every result with its stamp: two results are comparable only when
/// their stamps match (seed aside).
void WriteRecord(const Args& args, const std::string& stamp,
                 const std::string& result) {
  const std::string dir = args.dir + "/results";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + args.workload + "-" +
                           std::to_string(args.seed) +
                           (args.trace ? "-trace" : "") + ".json";
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::fprintf(out, "{\"stamp\": %s, \"result\": %s}\n", stamp.c_str(),
                 result.c_str());
    std::fclose(out);
  }
}

int Run(const Args& args) {
  ppref::net::internal::IgnoreSigpipe();
  Env env;
  env.seed = args.seed;
  env.plant_wrong_oracle = args.plant_wrong_oracle;
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const char* name) { return args.workload == name; }) ==
      std::end(kWorkloads)) {
    std::fprintf(stderr, "ppbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.dir);

  // Set-up, kSetups times for the end-to-end run; the first one also serves
  // a fixed number of requests for the peak resident set, the last one
  // serves the timed window.
  const int setups = args.trace ? 1 : kSetups;
  std::vector<double> setup_seconds;
  double peak_rss_mb = 0;
  Setup setup;
  for (int rep = 0; rep < setups; ++rep) {
    if (!SetUp(args, env, rep, &setup)) return 1;
    setup_seconds.push_back(setup.seconds);
    if (rep == 0 && !args.trace) {
      const Load fixed =
          ClosedLoop(*setup.workload, 0, setup.workload->MemoryRequests());
      peak_rss_mb = PeakRssMb(setup.daemon != nullptr ? setup.daemon->pid()
                                                      : getpid());
      std::printf("peak resident set after set-up and %llu requests: "
                  "%.4f MiB\n",
                  static_cast<unsigned long long>(fixed.attempted),
                  peak_rss_mb);
      if (fixed.failed > 0) {
        std::fprintf(stderr, "ppbench: %llu fixed-work requests failed\n",
                     static_cast<unsigned long long>(fixed.failed));
        return 1;
      }
    }
    if (rep + 1 < setups) {
      setup.workload->Close();
      setup.workload.reset();
      if (setup.daemon != nullptr && !setup.daemon->Stop()) {
        std::fprintf(stderr, "ppbench: daemon did not drain cleanly\n");
        return 1;
      }
      setup.daemon.reset();
      RemoveTree(setup.dir);
    }
  }
  const std::string stamp =
      StampJson(args, *setup.workload, setup.daemon != nullptr);
  std::printf("ppbench stamp: %s\n", stamp.c_str());
  std::printf("set-up seconds:");
  for (const double s : setup_seconds) std::printf(" %.4f", s);
  std::printf("\n");

  Window w;
  const double window_seconds = args.trace ? args.seconds * 0.4 : args.seconds;
  if (!RunWindow(args, setup, window_seconds, &w)) {
    std::fprintf(stderr, "ppbench: metrics scrape failed\n");
    return 1;
  }
  const std::uint64_t attempted = std::max<std::uint64_t>(1, w.load.attempted);
  const std::uint64_t failed = w.load.failed + w.wrong;
  const bool correct = w.wrong == 0 && w.drained;
  if (!w.drained) std::printf("daemon did not drain cleanly on SIGTERM\n");

  std::string result;
  if (!args.trace) {
    result = ResultJson(correct, attempted, failed, kEndToEnd,
                        std::size(kEndToEnd), EndToEnd(w, setup_seconds, peak_rss_mb));
  } else {
    LayerMetrics values;
    ServerCounters(w, &values);
    TracedReplay(args, env, setup.dir, &values);
    CompanionReplays(args, env, setup.dir, &values);
    if (!PrintPerLayer(values)) {
      std::fprintf(stderr, "ppbench: the traced run missed a metric\n");
      RemoveTree(setup.dir);
      return 1;
    }
    result = ResultJson(correct, attempted, failed, kPerLayer,
                        std::size(kPerLayer), values);
  }
  WriteRecord(args, stamp, result);
  RemoveTree(setup.dir);
  if (!correct || failed > 0) {
    std::printf("\nFAILED: %zu wrong answers, %llu failed requests\n",
                w.wrong, static_cast<unsigned long long>(w.load.failed));
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ppbench

int main(int argc, char** argv) {
  ppbench::Args args;
  if (!ppbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ppbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --served PATH --dir DIR [--git-sha SHA] "
                 "[--source-sha SHA] [--plant-wrong-oracle]\n");
    return 2;
  }
  return ppbench::Run(args);
}
