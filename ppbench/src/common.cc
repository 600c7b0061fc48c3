#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "ppref/net/json.h"
#include "ppref/rim/insertion.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/rim_model.h"

namespace ppbench {

using namespace ppref;

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<unsigned> Shuffled(unsigned m, Rng& rng) {
  std::vector<unsigned> order(m);
  for (unsigned i = 0; i < m; ++i) order[i] = i;
  for (unsigned i = m; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextIndex(i)]);
  }
  return order;
}

infer::LabeledRimModel MakeModel(const std::vector<unsigned>& order,
                                 double phi,
                                 const std::vector<unsigned>& label_of) {
  const unsigned m = static_cast<unsigned>(order.size());
  infer::ItemLabeling labeling(m);
  for (unsigned item = 0; item < m; ++item) {
    labeling.AddLabel(item, label_of[item]);
  }
  return infer::LabeledRimModel(
      rim::RimModel(rim::Ranking(std::vector<rim::ItemId>(order.begin(),
                                                          order.end())),
                    rim::InsertionFunction::Mallows(m, phi)),
      std::move(labeling));
}

infer::LabelPattern MakeChain(const std::vector<unsigned>& labels) {
  infer::LabelPattern pattern;
  for (const unsigned label : labels) pattern.AddNode(label);
  for (unsigned e = 0; e + 1 < labels.size(); ++e) pattern.AddEdge(e, e + 1);
  return pattern;
}

std::vector<unsigned> BlockLabels(unsigned m, unsigned per_label) {
  std::vector<unsigned> label_of(m);
  for (unsigned i = 0; i < m; ++i) label_of[i] = i / per_label;
  return label_of;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t index = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double FlipLowBit(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  bits ^= 1;
  std::memcpy(&value, &bits, sizeof(bits));
  return value;
}

double Scrape::Value(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

double Scrape::P50(const std::string& name) const {
  const auto it = p50s.find(name);
  return it == p50s.end() ? 0.0 : it->second;
}

bool ParseScrape(const std::string& json, Scrape* out) {
  StatusOr<net::JsonValue> document = net::ParseJson(json);
  if (!document.ok()) return false;
  const net::JsonValue* metrics = document->Find("metrics");
  if (metrics == nullptr || !metrics->IsObject()) return false;
  for (const auto& [name, value] : metrics->object) {
    if (value.IsNumber()) {
      out->values[name] = value.number;
    } else if (value.IsObject()) {
      const net::JsonValue* p50 = value.Find("p50");
      if (p50 != nullptr) out->p50s[name] = p50->number;
    }
  }
  return true;
}

double Delta(const Scrape& before, const Scrape& after,
             const std::string& name) {
  return after.Value(name) - before.Value(name);
}

double HitRatio(const Scrape& before, const Scrape& after,
                const std::string& cache, double* base) {
  const double hits = Delta(before, after, cache + "_hits");
  const double misses = Delta(before, after, cache + "_misses");
  *base = hits + misses;
  return *base > 0 ? hits / *base : 0.0;
}

double PeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::error_code error;
  std::uint64_t total = 0;
  for (std::filesystem::recursive_directory_iterator it(dir, error), end;
       !error && it != end; it.increment(error)) {
    if (it->is_regular_file(error)) total += it->file_size(error);
  }
  return total;
}

void RemoveTree(const std::string& dir) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ReferenceLoopMs(int rounds) {
  std::vector<double> array(1 << 15, 1.0);
  std::vector<double> ms;
  std::uint64_t x = 1;
  for (int round = 0; round < rounds; ++round) {
    const double start = NowSeconds();
    for (int pass = 0; pass < 24; ++pass) {
      for (std::size_t i = 1; i < array.size(); ++i) {
        array[i] = 0.5 * array[i] + 0.25 * array[i - 1] + 0.25;
        x = Mix(x, i);
        array[x & (array.size() - 1)] += 1e-9;
      }
    }
    // The comparison keeps the loop's stores live; it never holds.
    ms.push_back((NowSeconds() - start) * 1e3 +
                 (array[x & (array.size() - 1)] < 0 ? 1.0 : 0.0));
  }
  return Quantile(std::move(ms), 0.5);
}

}  // namespace ppbench
