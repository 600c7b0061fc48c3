/// \file bench_e23_store.cc
/// \brief E23: restart-to-first-answer with the persistent plan/circuit/
/// result store vs. recomputation from scratch.
///
/// The experiment models a serving restart. A first process compiles plans
/// and answers a query set with `--store-dir` persistence, then goes away.
/// Three restart paths answer the same queries:
///
///   cold             a fresh `serve::Server` with no store — every answer
///                    re-enumerates candidates, recompiles the DpPlan, and
///                    reruns the DP (the pre-store world).
///   warm-from-disk   `store::Store::Open` (recovery scan included) + a
///                    fresh server backed by it — answers come off mmap'ed
///                    segments through the codec.
///   warm-in-memory   the same server asked again — sharded-LRU hits, the
///                    steady state an uninterrupted process enjoys.
///
/// Two hard gates, exit 1 on either: every answer on every path must be
/// bit-identical to the cold DP, and warm-from-disk restart-to-first-answer
/// must be >= 5x faster than cold. Emits `BENCH_store.json`.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ppref/infer/top_prob.h"
#include "ppref/serve/server.h"
#include "ppref/store/store.h"

namespace {

using namespace ppref;
using namespace ppref::bench;

// DP work grows like m^2 per candidate step while a store load is a mapped
// read + decode, so m is chosen where compute dwarfs IO but one run stays
// comfortably inside a CI budget.
constexpr unsigned kM = 26;        // items
constexpr unsigned kK = 3;         // pattern chain length
constexpr unsigned kPerLabel = 3;  // candidates = 3^3 = 27
constexpr unsigned kQueries = 4;   // distinct (model, pattern) shapes

store::StoreOptions BenchStoreOptions(const std::string& dir) {
  store::StoreOptions options;
  options.dir = dir;
  // The bench measures the read path; background cadence is irrelevant.
  options.flush_interval_ms = 1000;
  return options;
}

/// Pr(g | σ, Π, λ) through the serving boundary; a non-OK status fails the
/// bench.
double Probability(serve::Server& server, const infer::LabeledRimModel& model,
                   const infer::LabelPattern& pattern) {
  serve::Request request;
  request.model = &model;
  request.pattern = &pattern;
  const serve::Response response = server.Evaluate(request);
  if (!response.status.ok()) {
    std::fprintf(stderr, "evaluate failed: %s\n",
                 response.status.ToString().c_str());
    std::exit(1);
  }
  return response.probability;
}

}  // namespace

int main() {
  PrintHeader("E23", "persistent store: restart-to-first-answer");

  std::vector<infer::LabeledRimModel> models;
  std::vector<infer::LabelPattern> patterns;
  for (unsigned q = 0; q < kQueries; ++q) {
    const double phi = 0.35 + 0.15 * q;
    models.push_back(
        LabeledMallows(kM, phi, SpreadLabeling(kM, kK, kPerLabel)));
    patterns.push_back(ChainPattern(kK));
  }

  const std::string dir =
      "/tmp/ppref_bench_e23_store." + std::to_string(getpid());
  const std::string cleanup = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cleanup.c_str());

  // Reference answers and the cold restart cost: a storeless server pays
  // the full pipeline per query. (A fresh server per measurement — restart
  // semantics — but the reference answers come from direct inference.)
  std::vector<double> expected;
  for (unsigned q = 0; q < kQueries; ++q) {
    expected.push_back(infer::PatternProb(models[q], patterns[q]));
  }
  std::vector<double> cold_answers;
  const double cold_ms = TimeMs([&] {
    serve::Server server;
    for (unsigned q = 0; q < kQueries; ++q) {
      cold_answers.push_back(Probability(server, models[q], patterns[q]));
    }
  });

  // Populate: one process lifetime with persistence, then a clean drain.
  {
    auto opened = store::Store::Open(BenchStoreOptions(dir));
    if (!opened.ok()) {
      std::fprintf(stderr, "store open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<store::Store> persistent = std::move(opened).value();
    serve::ServerOptions options;
    options.store = persistent.get();
    serve::Server server(options);
    for (unsigned q = 0; q < kQueries; ++q) {
      Probability(server, models[q], patterns[q]);
    }
    const Status flushed = persistent->Flush();
    if (!flushed.ok()) {
      std::fprintf(stderr, "flush failed: %s\n", flushed.ToString().c_str());
      return 1;
    }
  }

  // Warm-from-disk restart: recovery scan + mmap + codec, no DP.
  std::vector<double> disk_answers;
  std::unique_ptr<store::Store> persistent;
  std::unique_ptr<serve::Server> server;
  const double warm_disk_ms = TimeMs([&] {
    auto opened = store::Store::Open(BenchStoreOptions(dir));
    if (!opened.ok()) std::exit(1);
    persistent = std::move(opened).value();
    serve::ServerOptions options;
    options.store = persistent.get();
    server = std::make_unique<serve::Server>(options);
    for (unsigned q = 0; q < kQueries; ++q) {
      disk_answers.push_back(Probability(*server, models[q], patterns[q]));
    }
  });
  const serve::ServerStats warm_stats = server->Snapshot();

  // Warm-in-memory: the LRUs hold everything now.
  std::vector<double> memory_answers;
  const double warm_memory_ms = TimeMsAveraged(
      [&] {
        memory_answers.clear();
        for (unsigned q = 0; q < kQueries; ++q) {
          memory_answers.push_back(
              Probability(*server, models[q], patterns[q]));
        }
      },
      /*min_ms=*/100.0);

  std::size_t mismatches = 0;
  for (unsigned q = 0; q < kQueries; ++q) {
    if (cold_answers[q] != expected[q]) ++mismatches;
    if (disk_answers[q] != expected[q]) ++mismatches;
    if (memory_answers[q] != expected[q]) ++mismatches;
  }

  const double speedup_disk = cold_ms / warm_disk_ms;
  const double speedup_memory = cold_ms / warm_memory_ms;
  const store::StoreStats store_stats = persistent->stats();

  std::printf("m=%u k=%u queries=%u  store: %llu records, %llu bytes\n", kM,
              kK, kQueries,
              static_cast<unsigned long long>(store_stats.records),
              static_cast<unsigned long long>(store_stats.disk_bytes));
  std::printf("%-36s %10.2f ms\n", "cold restart (full recompute)", cold_ms);
  std::printf("%-36s %10.2f ms  (%.1fx)\n",
              "warm restart from disk (open+serve)", warm_disk_ms,
              speedup_disk);
  std::printf("%-36s %10.2f ms  (%.1fx)\n", "warm in memory (LRU hits)",
              warm_memory_ms, speedup_memory);
  std::printf("store hits on warm restart: %llu  (corrupt: %llu)\n",
              static_cast<unsigned long long>(warm_stats.store_hits),
              static_cast<unsigned long long>(warm_stats.store_corrupt));
  std::printf("bit-identical across all paths: %s\n",
              mismatches == 0 ? "yes" : "NO");

  const bool gate_speedup = speedup_disk >= 5.0;
  if (!gate_speedup) {
    std::fprintf(stderr,
                 "GATE FAILED: warm-from-disk speedup %.2fx < 5x\n",
                 speedup_disk);
  }

  FILE* json = std::fopen("BENCH_store.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"experiment\": \"e23_store_warm_restart\",\n"
                 "  \"git_sha\": \"%s\",\n  \"utc_date\": \"%s\",\n"
                 "  \"m\": %u,\n  \"k\": %u,\n  \"queries\": %u,\n"
                 "  \"store_records\": %llu,\n"
                 "  \"store_disk_bytes\": %llu,\n"
                 "  \"cold_ms\": %.3f,\n"
                 "  \"warm_disk_ms\": %.3f,\n"
                 "  \"warm_memory_ms\": %.3f,\n"
                 "  \"speedup_disk\": %.3f,\n"
                 "  \"speedup_memory\": %.3f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"bit_identical\": %s\n"
                 "}\n",
                 GitSha().c_str(), UtcDate().c_str(), kM, kK, kQueries,
                 static_cast<unsigned long long>(store_stats.records),
                 static_cast<unsigned long long>(store_stats.disk_bytes),
                 cold_ms, warm_disk_ms, warm_memory_ms, speedup_disk,
                 speedup_memory, speedup_disk,
                 mismatches == 0 ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_store.json\n");
  }

  server.reset();      // the server borrows the store; drop it first
  persistent.reset();
  rc = std::system(cleanup.c_str());
  return (mismatches == 0 && gate_speedup) ? 0 : 1;
}
