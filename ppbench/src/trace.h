/// \file trace.h
/// \brief ppbench: in-memory spans recorded around calls into ppref's
/// layers, and the per-layer self-time table built from them.
///
/// A span has a name ("layer.operation"), a start and end, its parent span
/// and the id of the request it belongs to. Spans are kept in memory and
/// written out when the run ends. A span's self time is its duration minus
/// the part of it that its child spans cover. The tracer is single-threaded:
/// the traced replay runs on one thread.
#ifndef PPBENCH_TRACE_H_
#define PPBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ppbench {

struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

class Tracer {
 public:
  /// With tracing off, spans cost one branch and record nothing.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// The request id stamped on spans opened from now on.
  void set_request(std::uint64_t id) { request_ = id; }

  int Open(const char* name);
  void Close(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Median duration in µs of the spans named `name`; 0 when none.
  double MedianUs(const std::string& name) const;
  /// Summed duration in ns and number of the spans named `name`.
  double TotalNs(const std::string& name) const;
  std::size_t Count(const std::string& name) const;

  /// Prints the per-layer self-time table of the request trees rooted at
  /// spans named `root` and checks that the self times of the layers on
  /// the blocking path cover at least (1 - tolerance) of the traced request
  /// latency. Returns whether the check held.
  bool PrintSelfTimeTable(const std::string& root, double tolerance) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.Open(name)) {}
  ~Span() { tracer_.Close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace ppbench

#endif  // PPBENCH_TRACE_H_
