/// \file workload.h
/// \brief ppbench: the interface every workload implements.
///
/// A workload owns its seeded inputs and the clients that send them.
/// main.cc starts `ppref_served` with the workload's flags (unless it
/// serves in process), calls Open() to connect, warm up and populate the
/// store, runs Call() from one thread per connection in a closed loop for
/// the timed window, and calls Verify() after it. The traced run replays
/// the same seeded inputs in process through ReplayOne(), with spans around
/// the calls into each layer.
#ifndef PPBENCH_WORKLOAD_H_
#define PPBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "ppref/net/client.h"
#include "trace.h"

namespace ppbench {

/// Threads serving requests in every workload: the daemon's --workers, or
/// the in-process server's threads.
inline constexpr unsigned kWorkers = 2;

struct Env {
  /// Seed of every generated input.
  std::uint64_t seed = 1;
  /// Self-test: flip the lowest bit of one oracle value, so verification
  /// must report a wrong answer.
  bool plant_wrong_oracle = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Flags for `ppref_served` besides the port; empty when the workload
  /// serves from this process.
  virtual std::vector<std::string> DaemonFlags(
      const std::string& store_dir) const = 0;
  /// Closed-loop connections, one thread each.
  virtual unsigned Connections() const { return 2; }
  /// Requests per connection of the fixed work after which peak_rss_mb is
  /// read, so that it does not depend on how fast the host runs.
  virtual std::uint64_t MemoryRequests() const = 0;

  /// Connects to the daemon on `port` (0 = in process, with its store in
  /// `store_dir`), warms up and populates the store.
  virtual bool Open(int port, const std::string& store_dir) = 0;
  /// One request of connection `conn`, its round trip timed into
  /// `*rtt_ns`; false when it failed (transport error or non-OK status).
  /// The answer is recorded for Verify().
  virtual bool Call(unsigned conn, std::uint64_t index,
                    std::uint64_t* rtt_ns) = 0;
  /// Checks the recorded answers against in-process oracles; returns the
  /// number of wrong answers.
  virtual std::size_t Verify() = 0;
  /// The in-process server's metrics, for workloads without a daemon.
  virtual bool ScrapeInProcess(Scrape* /*out*/) { return false; }
  /// Releases in-process serving state (flushing its store).
  virtual void Close() {}

  /// Builds the in-process state of the traced replay (not timed); `dir`
  /// is scratch space for a replay store.
  virtual void ReplayPrepare(const std::string& dir) = 0;
  /// Replays request `index` in process under one root span "request".
  virtual void ReplayOne(Tracer& tracer, std::uint64_t index) = 0;
  /// The per-layer metrics this workload measures, from the replay's spans
  /// and counters.
  virtual void ReplayMetrics(const Tracer& tracer, LayerMetrics* out) = 0;
};

/// Connects a binary-protocol client to the daemon on `port`; nullptr on
/// failure.
std::unique_ptr<ppref::net::Client> ConnectClient(int port);

/// Runs fn(c) for every connection c on a thread of its own; true when
/// every call returned true. Set-ups warm the daemon through all
/// connections at once, so its workers warm up side by side.
bool OnEachConnection(unsigned connections,
                      const std::function<bool(unsigned)>& fn);

/// Runs `fn` under the span `name` and returns its result.
template <typename Fn>
auto Timed(Tracer& tracer, const char* name, Fn&& fn) {
  const Span span(tracer, name);
  return fn();
}

/// Wire sizes summed over the traced replay's traced requests.
struct WireBytes {
  double requests = 0;
  double request_bytes = 0;
  double response_bytes = 0;

  void Add(const Tracer& tracer, std::size_t request, std::size_t response) {
    if (!tracer.enabled()) return;
    requests += 1;
    request_bytes += static_cast<double>(request);
    response_bytes += static_cast<double>(response);
  }
};

/// The `net.*` codec metrics of a replay whose spans are named
/// net.encode_request, net.decode_request, net.encode_response and
/// net.decode_response.
void NetReplayMetrics(const Tracer& tracer, const WireBytes& bytes,
                      LayerMetrics* out);

std::unique_ptr<Workload> MakeHotHits(const Env& env);
std::unique_ptr<Workload> MakeColdExact(const Env& env);
std::unique_ptr<Workload> MakeAnalyticsMix(const Env& env);
std::unique_ptr<Workload> MakePpdCq(const Env& env);

}  // namespace ppbench

#endif  // PPBENCH_WORKLOAD_H_
