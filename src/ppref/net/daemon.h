/// \file daemon.h
/// \brief `ppref::net` — the network daemon: an epoll connection layer and a
/// worker pool wrapped around `serve::Server`.
///
/// ## Threading model
/// ```
///                        ┌────────────────────────────┐
///   accept / epoll ──────►  IO thread (owns all       │
///   read / write         │  connection state)         │
///                        └──────┬──────────▲──────────┘
///              complete frames  │          │  encoded responses
///                        ┌──────▼──────────┴──────────┐
///                        │  worker pool (N threads):  │
///                        │  decode → serve::Server    │
///                        │  ::Evaluate → encode       │
///                        └────────────────────────────┘
/// ```
/// One IO thread owns every socket and every per-connection struct — reads,
/// protocol detection, frame assembly, writes, deadlines, and teardown all
/// happen there, so connection state needs no locks. Complete requests are
/// handed to a fixed worker pool as owned byte buffers; workers do the
/// expensive work (decode, DP evaluation through the full fault-tolerant
/// serve pipeline, encode) and push finished bytes back through a completion
/// queue drained by the IO thread (woken via eventfd). A response for a
/// connection that died in the meantime is dropped by id — workers never
/// touch sockets.
///
/// Both planes share one port: a connection's first four bytes either match
/// the binary frame magic or the stream is treated as HTTP (http.h).
///
/// ## Deadlines and slow peers
/// `connection_deadline_ns` bounds how long a connection may sit *without a
/// complete request* — from accept, and between requests. A slow-loris peer
/// dribbling header bytes is closed when it expires; a connection whose
/// request is being computed is not (the request's own serve-layer deadline
/// governs that). Request deadlines inside the payload map onto
/// `serve::RequestControl` and the server's load-shedding/degradation
/// machinery, so an overloaded daemon answers `kResourceExhausted` /
/// degraded rather than queueing unboundedly.
///
/// ## Drain
/// `RequestDrain()` is async-signal-safe (an atomic store plus an eventfd
/// write) — call it from a SIGTERM handler. The daemon then: closes the
/// listen socket (new connects are refused by the kernel), closes idle
/// connections, lets in-flight requests finish and their responses flush,
/// answers `/healthz` with 503 meanwhile, and `Join()` returns once the last
/// connection is gone. `Stop()` is the impatient variant (tests): close
/// everything now.
///
/// ## Testability
/// The same event loop serves sockets it never accepted: `AdoptConnection`
/// injects one end of a `socketpair` directly, which is how the protocol
/// test harness drives every framing/deadline/drain path deterministically
/// in-process — under ctest and TSan — with no port allocation at all.

#ifndef PPREF_NET_DAEMON_H_
#define PPREF_NET_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ppref/common/status.h"
#include "ppref/net/dedup.h"
#include "ppref/net/frame.h"
#include "ppref/net/http.h"
#include "ppref/serve/server.h"

namespace ppref::net {

struct DaemonOptions {
  /// TCP listen port; 0 = ephemeral (read the outcome from `port()`),
  /// -1 = do not listen at all (adopt-only daemon, the test harness mode).
  int port = -1;
  /// An already-bound, already-listening socket to serve instead of binding
  /// `port` (which is then ignored). The daemon takes ownership. This is how
  /// the multi-process bench learns the port before forking clients and
  /// before any daemon thread exists.
  int listen_fd = -1;
  /// Listen address. Loopback by default: exposing an unauthenticated query
  /// engine beyond the host is a deployment decision, not a default.
  std::string bind_address = "127.0.0.1";
  /// Worker threads decoding/evaluating/encoding requests. 0 = auto
  /// (ClampThreads).
  unsigned workers = 0;
  /// Accepted connections beyond this are closed immediately. 0 = unbounded.
  std::size_t max_connections = 1024;
  /// Idle/slow-peer bound (see file comment). 0 = no deadline.
  std::uint64_t connection_deadline_ns = 30ull * 1000 * 1000 * 1000;
  /// Frame body cap handed to each connection's FrameAssembler.
  std::size_t max_frame_body = kDefaultMaxBodyBytes;
  /// HTTP request cap handed to each connection's HttpAccumulator.
  std::size_t max_http_bytes = kDefaultMaxHttpBytes;
  /// Retained entries in the idempotency table (net/dedup.h): keyed
  /// requests single-flight while in flight and replay bit-identical bytes
  /// afterwards, until FIFO-evicted past this bound. 0 disables idempotent
  /// re-execution (keys are then ignored).
  std::size_t idempotency_capacity = 4096;
  /// The serve layer configuration for the daemon-owned server (ignored
  /// when `server` is set).
  serve::ServerOptions server_options;
  /// Borrowed pre-built server; must outlive the daemon. nullptr = the
  /// daemon owns one built from `server_options`.
  serve::Server* server = nullptr;
};

/// A running daemon instance. Construct, `Start()`, eventually
/// `RequestDrain()` + `Join()` (or `Stop()`). Thread-safe where documented;
/// all methods may be called from any thread except where noted.
class Daemon {
 public:
  explicit Daemon(DaemonOptions options = {});
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds and listens (when options.port >= 0) and spawns the IO thread
  /// and worker pool. Errors (bind failure, bad port) return without any
  /// thread started.
  Status Start();

  /// The bound TCP port after Start() (0 when not listening).
  int port() const { return port_; }

  /// Hands an already-connected stream socket to the event loop, which
  /// takes ownership of the fd. Refused once draining or stopped.
  Status AdoptConnection(int fd);

  /// Begins graceful drain. Async-signal-safe. Idempotent.
  void RequestDrain();

  /// Blocks until the drain completes (every connection closed, workers
  /// joined). Calling Join() without RequestDrain()/Stop() blocks until
  /// someone else initiates shutdown.
  void Join();

  /// Hard stop: close all connections (in-flight answers are lost), join
  /// everything. Idempotent; the destructor calls it.
  void Stop();

  /// True once RequestDrain() (or Stop()) has been observed.
  bool draining() const { return drain_.load(std::memory_order_acquire); }

  /// The serving core (daemon-owned or borrowed).
  serve::Server& server() { return *server_; }
  const serve::Server& server() const { return *server_; }

  /// Idempotency-table totals (zeros when disabled). Thread-safe.
  IdempotencyTable::Stats idempotency_stats() const;

 private:
  struct Connection;
  struct Job;
  struct Completion;
  struct Instruments;

  void IoLoop();
  void WorkerLoop();

  // IO-thread helpers (only the IO thread touches Connection state).
  void AcceptReady();
  void AdoptPending();
  /// Registers a connected, non-blocking socket with the event loop.
  void AddConnection(int fd);
  void ReadReady(Connection& connection);
  void WriteReady(Connection& connection);
  void HandleInput(Connection& connection, const char* data, std::size_t size);
  void DispatchBinary(Connection& connection, Frame frame);
  void DispatchHttp(Connection& connection);
  void QueueOutput(Connection& connection, std::string bytes,
                   bool close_after);
  void FlushOutput(Connection& connection);
  void CloseConnection(std::uint64_t id);
  void DrainCompletions();
  void CloseExpiredConnections();
  int NextTimeoutMs() const;

  // Worker-side request execution (no connection access): the binary body
  // of a request frame of type `kind`, or one HTTP request whose POST route
  // serves `kind` (unset for any other route). `retain_idem` reports
  // whether the produced bytes are a terminal answer safe to retain for
  // idempotent replay.
  std::string ExecuteBinary(FrameType kind, std::string_view body,
                            bool* retain_idem);
  std::string ExecuteHttp(const HttpRequest& request,
                          std::optional<FrameType> kind, bool draining,
                          bool* retain_idem);

  void PushJob(Job job);
  void PushCompletion(Completion completion);
  void Wake();

  DaemonOptions options_;
  std::unique_ptr<serve::Server> owned_server_;
  serve::Server* server_ = nullptr;
  std::unique_ptr<Instruments> instruments_;
  std::unique_ptr<IdempotencyTable> idempotency_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> started_{false};
  std::atomic<bool> drain_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> io_done_{false};

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  // Worker job queue.
  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;
  bool jobs_closed_ = false;

  // IO-bound queues (completions from workers, fds to adopt).
  std::mutex completions_mutex_;
  std::vector<Completion> completions_;
  std::mutex adopt_mutex_;
  std::vector<int> adopt_pending_;

  // Connections; IO thread only. Ids 0 and 1 are the listen/wake epoll
  // slots (daemon.cc), so connection ids start at 2.
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_connection_id_ = 2;

  // Join/exit signalling.
  std::mutex join_mutex_;
  std::condition_variable join_cv_;
  bool joined_ = false;
};

}  // namespace ppref::net

#endif  // PPREF_NET_DAEMON_H_
