/// \file common.h
/// \brief ppbench: shared helpers — seeding, statistics, the daemon's
/// metrics scrape, process and disk accounting.
#ifndef PPBENCH_COMMON_H_
#define PPBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ppref/common/clock.h"
#include "ppref/common/random.h"
#include "ppref/infer/labeled_rim.h"
#include "ppref/infer/pattern.h"

namespace ppbench {

/// Per-layer metric values by name (the `per_layer` names of
/// BENCHMARK.json).
using LayerMetrics = std::map<std::string, double>;

/// SplitMix64 finalizer over two words: the seed of one request is
/// Mix(Mix(seed, connection), index), so every input is a pure function of
/// (--seed, connection, request index) and can be regenerated for checking.
std::uint64_t Mix(std::uint64_t a, std::uint64_t b);

/// A deterministic permutation of 0..m-1.
std::vector<unsigned> Shuffled(unsigned m, ppref::Rng& rng);

/// A labeled Mallows model: reference `order` (a permutation), dispersion
/// `phi`, item i carrying label `label_of[i]`.
ppref::infer::LabeledRimModel MakeModel(const std::vector<unsigned>& order,
                                        double phi,
                                        const std::vector<unsigned>& label_of);

/// The chain pattern labels[0] ≻ labels[1] ≻ ...
ppref::infer::LabelPattern MakeChain(const std::vector<unsigned>& labels);

/// Item i of m carries label i / per_label (so every label has `per_label`
/// items, the last one possibly fewer).
std::vector<unsigned> BlockLabels(unsigned m, unsigned per_label);

/// The q-quantile (0..1) of `values` by nearest rank; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Bit-pattern equality of two doubles (the engine's exactness contract).
bool SameBits(double a, double b);

/// `value` with the lowest bit of its bit pattern flipped.
double FlipLowBit(double value);

/// Parsed GET /metrics.json of the daemon (or of an in-process server):
/// counters and gauges by name, and the p50 of each histogram by name.
struct Scrape {
  std::map<std::string, double> values;
  std::map<std::string, double> p50s;

  double Value(const std::string& name) const;
  double P50(const std::string& name) const;
};

/// Parses the JSON rendering of `obs` metrics. Returns false on bad input.
bool ParseScrape(const std::string& json, Scrape* out);

/// The named counter's increase from `before` to `after`.
double Delta(const Scrape& before, const Scrape& after,
             const std::string& name);

/// hits / (hits + misses) of the named cache between two scrapes; 0 when
/// the cache saw no lookups. Writes the base (lookups) to `*base`.
double HitRatio(const Scrape& before, const Scrape& after,
                const std::string& cache, double* base);

/// VmHWM (peak resident set) of process `pid` in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// Total size in bytes of the regular files under `dir` (recursive).
std::uint64_t DirBytes(const std::string& dir);

/// Removes `dir` and everything below it (no error when absent).
void RemoveTree(const std::string& dir);

/// Steady-clock seconds since an arbitrary origin.
double NowSeconds();

/// Median wall time, in ms, of `rounds` rounds of a fixed single-threaded
/// loop that calls no ppref code (floating-point recurrences and hashed
/// stores over a 256 KiB array): how fast the shared host runs the
/// benchmark's threads at the moment.
double ReferenceLoopMs(int rounds);

}  // namespace ppbench

#endif  // PPBENCH_COMMON_H_
