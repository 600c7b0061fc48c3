#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common.h"
#include "ppref/common/clock.h"

namespace ppbench {

int Tracer::Open(const char* name) {
  if (!enabled_) return -1;
  SpanRecord record;
  record.name = name;
  record.parent = open_.empty() ? -1 : open_.back();
  record.request = request_;
  record.start_ns = ppref::MonotonicNowNs();
  spans_.push_back(record);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::Close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = ppref::MonotonicNowNs();
  open_.pop_back();
}

double Tracer::MedianUs(const std::string& name) const {
  std::vector<double> us;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) {
      us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return Quantile(std::move(us), 0.5);
}

double Tracer::TotalNs(const std::string& name) const {
  double total = 0;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) {
      total += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return total;
}

std::size_t Tracer::Count(const std::string& name) const {
  std::size_t count = 0;
  for (const SpanRecord& span : spans_) count += name == span.name;
  return count;
}

bool Tracer::PrintSelfTimeTable(const std::string& root,
                                double tolerance) const {
  // Children of every span, in start order (spans are appended at Open, so
  // a parent's children already appear in start order).
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  auto self_ns = [&](std::size_t i) {
    // Duration minus the union of the children's intervals.
    std::uint64_t covered = 0;
    std::uint64_t reach = spans_[i].start_ns;
    for (const int c : children[i]) {
      const SpanRecord& child = spans_[static_cast<std::size_t>(c)];
      const std::uint64_t begin = std::max(child.start_ns, reach);
      if (child.end_ns > begin) {
        covered += child.end_ns - begin;
        reach = child.end_ns;
      }
    }
    return static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
           static_cast<double>(covered);
  };

  struct Row {
    double self_ns = 0;
    double calls = 0;
  };
  std::map<std::string, Row> rows;
  double roots = 0;
  double root_ns = 0;
  double attributed_ns = 0;
  std::vector<std::size_t> stack;
  for (std::size_t r = 0; r < spans_.size(); ++r) {
    if (spans_[r].parent >= 0 || root != spans_[r].name) continue;
    roots += 1;
    root_ns += static_cast<double>(spans_[r].end_ns - spans_[r].start_ns);
    stack.assign(1, r);
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      const double self = self_ns(i);
      Row& row = rows[i == r ? std::string("(unattributed)") : spans_[i].name];
      row.self_ns += self;
      row.calls += 1;
      if (i != r) attributed_ns += self;
      for (const int c : children[i]) {
        stack.push_back(static_cast<std::size_t>(c));
      }
    }
  }
  if (roots == 0) {
    std::printf("self-time table: no '%s' spans\n", root.c_str());
    return false;
  }
  std::printf("\nper-layer self time on the blocking path of one '%s' "
              "(%.0f traced requests)\n",
              root.c_str(), roots);
  std::printf("  %-28s %10s %14s %8s\n", "span", "calls/req", "self us/req",
              "share");
  for (const auto& [name, row] : rows) {
    std::printf("  %-28s %10.2f %14.3f %7.1f%%\n", name.c_str(),
                row.calls / roots, row.self_ns / roots / 1e3,
                100.0 * row.self_ns / root_ns);
  }
  const double covered = attributed_ns / root_ns;
  const bool ok = covered >= 1.0 - tolerance;
  std::printf("  traced request latency %.3f us; layer self times sum to "
              "%.1f%% of it (tolerance %.0f%%): %s\n",
              root_ns / roots / 1e3, 100.0 * covered, 100.0 * tolerance,
              ok ? "ok" : "NOT MET");
  return ok;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRecord& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 span.name, static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns), span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(out) == 0;
}

}  // namespace ppbench
