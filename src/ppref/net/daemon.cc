#include "ppref/net/daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include "ppref/common/hash.h"
#include "ppref/common/parallel.h"
#include "ppref/net/codec.h"
#include "ppref/obs/metrics.h"

namespace ppref::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Epoll user-data ids for the two non-connection fds.
constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = 1;
constexpr std::uint64_t kFirstConnectionId = 2;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Best-effort little-endian u64 at `offset` — how a shed/failed request's
/// id is recovered without decoding the body (0 when too short).
std::uint64_t PeekId(std::string_view body, std::size_t offset) {
  if (body.size() < offset + 8) return 0;
  std::uint64_t id = 0;
  for (int i = 0; i < 8; ++i) {
    id |= static_cast<std::uint64_t>(
              static_cast<unsigned char>(body[offset + i]))
          << (8 * i);
  }
  return id;
}

/// Protocol-plane tags folded into idempotency-table keys: the binary and
/// HTTP planes retain different byte encodings of the same logical answer,
/// so their keys must never alias.
constexpr std::uint64_t kIdemPlaneBinary = 0x62696e5050524631ull;  // "binPPRF1"
constexpr std::uint64_t kIdemPlaneHttp = 0x6874745050524631ull;    // "httPPRF1"

/// Strict decimal u64 parse for the idempotency HTTP header; false on
/// empty, non-digit, overflow, or zero.
bool ParseHeaderKey(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 20) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~0ull - digit) / 10) return false;
    value = value * 10 + digit;
  }
  if (value == 0) return false;
  *out = value;
  return true;
}

serve::RequestControl ControlFor(std::uint64_t deadline_ns) {
  serve::RequestControl control;
  control.deadline_ns = deadline_ns;
  return control;
}

// One struct per query kind: its wire request and response types, its
// response frame, where the request id sits in an encoded body, its codec
// and JSON functions, and the server call that answers it. Both transports
// serve every kind through these, so a kind is executed one way only.

struct PlainKind {
  using Request = WireRequest;
  using Response = WireResponse;
  static constexpr FrameType kResponseFrame = FrameType::kResponse;
  /// The plain body opens with the id.
  static constexpr std::size_t kIdOffset = 0;
  static constexpr auto Decode = &DecodeRequest;
  static constexpr auto Encode = &EncodeResponse;
  static constexpr auto FromJson = &WireRequestFromJson;
  static constexpr auto ToJson = &JsonFromWireResponse;
  static Response Execute(serve::Server& server, const Request& request) {
    return WireResponse::From(request.id, server.Evaluate(request.ToRequest()));
  }
};

// Sweep, hard and consensus bodies open with the u32 length of the base
// request they wrap, so their id sits at bytes 4..12.

struct SweepKind {
  using Request = WireSweepRequest;
  using Response = WireSweepResponse;
  static constexpr FrameType kResponseFrame = FrameType::kSweepResponse;
  static constexpr std::size_t kIdOffset = 4;
  static constexpr auto Decode = &DecodeSweepRequest;
  static constexpr auto Encode = &EncodeSweepResponse;
  static constexpr auto FromJson = &SweepRequestFromJson;
  static constexpr auto ToJson = &JsonFromWireSweepResponse;
  static Response Execute(serve::Server& server, const Request& request) {
    return WireSweepResponse::From(
        request.id,
        server.PatternProbSweep(request.model, request.pattern, request.params,
                                ControlFor(request.deadline_ns)));
  }
};

struct HardKind {
  using Request = WireHardRequest;
  using Response = WireHardResponse;
  static constexpr FrameType kResponseFrame = FrameType::kHardResponse;
  static constexpr std::size_t kIdOffset = 4;
  static constexpr auto Decode = &DecodeHardRequest;
  static constexpr auto Encode = &EncodeHardResponse;
  static constexpr auto FromJson = &HardRequestFromJson;
  static constexpr auto ToJson = &JsonFromWireHardResponse;
  static Response Execute(serve::Server& server, const Request& request) {
    return WireHardResponse::From(
        request.id,
        server.HardPatternProb(request.model, request.pattern,
                               request.target_half_width,
                               ControlFor(request.deadline_ns)));
  }
};

struct ConsensusKind {
  using Request = WireConsensusRequest;
  using Response = WireConsensusResponse;
  static constexpr FrameType kResponseFrame = FrameType::kConsensusResponse;
  static constexpr std::size_t kIdOffset = 4;
  static constexpr auto Decode = &DecodeConsensusRequest;
  static constexpr auto Encode = &EncodeConsensusResponse;
  static constexpr auto FromJson = &ConsensusRequestFromJson;
  static constexpr auto ToJson = &JsonFromWireConsensusResponse;
  static Response Execute(serve::Server& server, const Request& request) {
    return WireConsensusResponse::From(
        request.id, server.ConsensusTopK(request.model, request.top_k,
                                         ControlFor(request.deadline_ns)));
  }
};

/// Calls `fn` with the kind whose request frame is `type`, which must be
/// one of the four request frame types, and returns what it returns.
template <typename Fn>
auto WithKind(FrameType type, Fn&& fn) {
  switch (type) {
    case FrameType::kSweepRequest:
      return fn(SweepKind{});
    case FrameType::kHardRequest:
      return fn(HardKind{});
    case FrameType::kConsensusRequest:
      return fn(ConsensusKind{});
    default:
      return fn(PlainKind{});
  }
}

/// The kind an HTTP request's POST route serves, named by its binary
/// request frame type; nullopt for every other request.
std::optional<FrameType> HttpKind(const HttpRequest& request) {
  if (request.method != "POST") return std::nullopt;
  if (request.target == "/query") return FrameType::kRequest;
  if (request.target == "/sweep") return FrameType::kSweepRequest;
  if (request.target == "/hard") return FrameType::kHardRequest;
  if (request.target == "/consensus") return FrameType::kConsensusRequest;
  return std::nullopt;
}

/// The response frame refusing a binary request of `Kind` with `status`. The
/// id is peeked from the undecoded body (0 when too short; the strict
/// client treats that as terminal).
template <typename Kind>
std::string RefusalFrame(std::string_view body, Status status) {
  typename Kind::Response response;
  response.id = PeekId(body, Kind::kIdOffset);
  response.status = std::move(status);
  return EncodeFrame(Kind::kResponseFrame, Kind::Encode(response));
}

/// Whether an answer may be retained for idempotent replay. Terminal
/// answers replay bit-identically: exact OK answers, and degraded
/// approximate ones (seeded MC — *the* answer for this request, so a retry
/// must see the same bits). Transient refusals (shed, empty-handed
/// deadline) must not be pinned — a later retry deserves a fresh attempt.
bool Retainable(const WireResponse& response) {
  return response.status.ok() || response.approximate;
}

template <typename Response>
bool Retainable(const Response& response) {
  return response.status.ok();
}

std::string HttpBadRequest(const Status& status) {
  return RenderHttpResponse(
      400, "Bad Request", "application/json",
      "{\"status\":\"INVALID_ARGUMENT\",\"message\":" +
          JsonQuote(status.message()) + "}");
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal structs

struct Daemon::Connection {
  Connection(std::uint64_t id, int fd, const DaemonOptions& options)
      : id(id),
        fd(fd),
        assembler(options.max_frame_body),
        http(options.max_http_bytes) {}

  std::uint64_t id;
  int fd;

  enum class Protocol : std::uint8_t { kUnknown, kBinary, kHttp };
  Protocol protocol = Protocol::kUnknown;
  /// Bytes held while the protocol is still undecided (< 4 bytes seen).
  std::string detect;

  FrameAssembler assembler;
  HttpAccumulator http;

  std::string out;
  std::size_t out_offset = 0;
  bool want_write = false;

  /// Requests dispatched to workers and not yet answered.
  std::size_t in_flight = 0;
  bool peer_closed = false;
  bool close_after_flush = false;

  /// Expiry point while quiet (no request in flight); reset on accept and
  /// on every flushed response.
  Clock::time_point deadline_at;
};

struct Daemon::Job {
  std::uint64_t conn_id = 0;
  bool http = false;
  /// The query kind, named by its binary request frame type; for HTTP, the
  /// kind its POST route serves (unset for every other HTTP request).
  std::optional<FrameType> kind;
  std::string body;      // binary request frame body
  HttpRequest request;   // http request
};

struct Daemon::Completion {
  std::uint64_t conn_id = 0;
  std::string bytes;
  bool close_after = false;
};

struct Daemon::Instruments {
  explicit Instruments(obs::MetricsRegistry& r)
      : accepted(r.GetCounter("ppref_net_connections_accepted_total",
                              "TCP connections accepted")),
        adopted(r.GetCounter("ppref_net_connections_adopted_total",
                             "Connections injected via AdoptConnection")),
        closed(r.GetCounter("ppref_net_connections_closed_total",
                            "Connections closed (any reason)")),
        deadline_closes(
            r.GetCounter("ppref_net_deadline_closes_total",
                         "Connections closed by the per-connection deadline")),
        refused(r.GetCounter("ppref_net_connections_refused_total",
                             "Connections refused (capacity or drain)")),
        bad_frames(r.GetCounter("ppref_net_bad_frames_total",
                                "Connections dropped for framing violations")),
        requests_binary(r.GetCounter("ppref_net_requests_binary_total",
                                     "Binary-protocol requests dispatched")),
        requests_http(r.GetCounter("ppref_net_requests_http_total",
                                   "HTTP requests dispatched")),
        requests_sweep(r.GetCounter("ppref_net_requests_sweep_total",
                                    "Parameter-sweep requests dispatched "
                                    "(binary and HTTP)")),
        requests_hard(r.GetCounter("ppref_net_requests_hard_total",
                                   "Hard-tier adaptive-estimate requests "
                                   "dispatched (binary and HTTP)")),
        requests_consensus(r.GetCounter("ppref_net_requests_consensus_total",
                                        "Consensus top-k requests dispatched "
                                        "(binary and HTTP)")),
        shed_draining(r.GetCounter(
            "ppref_net_shed_draining_total",
            "Requests refused because the daemon was draining")),
        bytes_rx(r.GetCounter("ppref_net_bytes_rx_total", "Bytes read")),
        bytes_tx(r.GetCounter("ppref_net_bytes_tx_total", "Bytes written")),
        active(r.GetGauge("ppref_net_connections_active",
                          "Currently open connections")),
        draining(r.GetGauge("ppref_net_draining",
                            "1 once graceful drain has begun")) {}

  obs::Counter& accepted;
  obs::Counter& adopted;
  obs::Counter& closed;
  obs::Counter& deadline_closes;
  obs::Counter& refused;
  obs::Counter& bad_frames;
  obs::Counter& requests_binary;
  obs::Counter& requests_http;
  obs::Counter& requests_sweep;
  obs::Counter& requests_hard;
  obs::Counter& requests_consensus;
  obs::Counter& shed_draining;
  obs::Counter& bytes_rx;
  obs::Counter& bytes_tx;
  obs::Gauge& active;
  obs::Gauge& draining;

  /// Counts one request routed to `kind`, on either transport. Plain
  /// queries have only the per-transport counters.
  void CountKind(FrameType kind) {
    switch (kind) {
      case FrameType::kSweepRequest:
        requests_sweep.Inc();
        return;
      case FrameType::kHardRequest:
        requests_hard.Inc();
        return;
      case FrameType::kConsensusRequest:
        requests_consensus.Inc();
        return;
      default:
        return;
    }
  }
};

// ---------------------------------------------------------------------------
// Lifecycle

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  if (options_.server != nullptr) {
    server_ = options_.server;
  } else {
    owned_server_ = std::make_unique<serve::Server>(options_.server_options);
    server_ = owned_server_.get();
  }
  instruments_ = std::make_unique<Instruments>(server_->registry());
  if (options_.idempotency_capacity > 0) {
    IdempotencyTable::Options idem_options;
    idem_options.capacity = options_.idempotency_capacity;
    idem_options.registry = &server_->registry();
    idempotency_ = std::make_unique<IdempotencyTable>(idem_options);
  }
}

IdempotencyTable::Stats Daemon::idempotency_stats() const {
  return idempotency_ != nullptr ? idempotency_->stats()
                                 : IdempotencyTable::Stats{};
}

Daemon::~Daemon() {
  Stop();
  // After Stop() no thread but this one is alive; listen_fd_ is still open
  // only when Start() failed before the IO thread existed.
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  if (wake_fd_ >= 0) close(wake_fd_);
  wake_fd_ = -1;
  if (epoll_fd_ >= 0) close(epoll_fd_);
  epoll_fd_ = -1;
}

Status Daemon::Start() {
  if (started_.exchange(true)) {
    return Status::Internal("daemon already started");
  }
  // On any failure below the IO thread will never run, so mark it done —
  // otherwise a later Stop()/Join() would wait for it forever.
  auto fail = [this](Status status) {
    io_done_.store(true, std::memory_order_release);
    join_cv_.notify_all();
    return status;
  };

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail(Errno("epoll_create1"));
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return fail(Errno("eventfd"));
  epoll_event wake_event{};
  wake_event.events = EPOLLIN;
  wake_event.data.u64 = kWakeId;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_event);

  if (options_.listen_fd >= 0) {
    listen_fd_ = options_.listen_fd;
    SetNonBlocking(listen_fd_);
    sockaddr_in address{};
    socklen_t length = sizeof(address);
    if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                    &length) == 0 &&
        address.sin_family == AF_INET) {
      port_ = ntohs(address.sin_port);
    }
  } else if (options_.port >= 0) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK,
                        0);
    if (listen_fd_ < 0) return fail(Errno("socket"));
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (inet_pton(AF_INET, options_.bind_address.c_str(),
                  &address.sin_addr) != 1) {
      return fail(Status::InvalidArgument("bad bind address " +
                                          options_.bind_address));
    }
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
      return fail(Errno("bind"));
    }
    if (listen(listen_fd_, 128) != 0) return fail(Errno("listen"));
    socklen_t length = sizeof(address);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address), &length);
    port_ = ntohs(address.sin_port);
  }
  if (listen_fd_ >= 0) {
    epoll_event listen_event{};
    listen_event.events = EPOLLIN;
    listen_event.data.u64 = kListenId;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &listen_event);
  }

  unsigned workers = options_.workers;
  if (workers == 0) workers = ClampThreads(0);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::Ok();
}

Status Daemon::AdoptConnection(int fd) {
  if (!started_.load(std::memory_order_acquire) ||
      io_done_.load(std::memory_order_acquire)) {
    close(fd);
    return Status::Internal("daemon not running");
  }
  if (drain_.load(std::memory_order_acquire)) {
    close(fd);
    return Status::ResourceExhausted("daemon draining");
  }
  {
    std::lock_guard<std::mutex> lock(adopt_mutex_);
    adopt_pending_.push_back(fd);
  }
  Wake();
  return Status::Ok();
}

void Daemon::RequestDrain() {
  // Async-signal-safe: one atomic store, one eventfd write.
  drain_.store(true, std::memory_order_release);
  Wake();
}

void Daemon::Join() {
  if (!started_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(join_mutex_);
  join_cv_.wait(lock, [this] { return io_done_.load(); });
  if (!joined_) {
    joined_ = true;
    lock.unlock();
    if (io_thread_.joinable()) io_thread_.join();
    return;
  }
  lock.unlock();
  // Another thread owns the join; wait for the thread to finish.
  if (io_thread_.joinable()) io_thread_.join();
}

void Daemon::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  drain_.store(true, std::memory_order_release);
  Wake();
  Join();
}

void Daemon::Wake() {
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }
}

// ---------------------------------------------------------------------------
// IO thread

void Daemon::IoLoop() {
  bool drain_seen = false;
  epoll_event events[64];

  while (true) {
    if (stop_.load(std::memory_order_acquire)) break;
    if (drain_.load(std::memory_order_acquire) && !drain_seen) {
      drain_seen = true;
      instruments_->draining.Set(1);
      if (listen_fd_ >= 0) {
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        close(listen_fd_);
        listen_fd_ = -1;
      }
      // Close what can close now; connections with answers pending flush
      // first (close_after_flush), the rest go immediately.
      std::vector<std::uint64_t> idle;
      for (auto& [id, connection] : connections_) {
        connection->close_after_flush = true;
        if (connection->in_flight == 0 && connection->out_offset ==
            connection->out.size()) {
          idle.push_back(id);
        }
      }
      for (std::uint64_t id : idle) CloseConnection(id);
    }
    if (drain_seen && connections_.empty()) break;

    const int ready =
        epoll_wait(epoll_fd_, events, 64, NextTimeoutMs());
    if (ready < 0 && errno != EINTR) break;

    for (int i = 0; i < ready; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kListenId) {
        AcceptReady();
        continue;
      }
      if (id == kWakeId) {
        std::uint64_t drainer = 0;
        while (read(wake_fd_, &drainer, sizeof(drainer)) > 0) {
        }
        continue;
      }
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      Connection& connection = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        CloseConnection(id);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) ReadReady(connection);
      // ReadReady may have closed the connection; re-find before writing.
      auto again = connections_.find(id);
      if (again != connections_.end() &&
          (events[i].events & EPOLLOUT) != 0) {
        WriteReady(*again->second);
      }
    }

    AdoptPending();
    DrainCompletions();
    CloseExpiredConnections();
  }

  // Teardown: drop every remaining connection, stop the workers, release
  // the fds. Runs on the IO thread so connection state stays single-owner
  // to the end.
  for (auto& [id, connection] : connections_) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, connection->fd, nullptr);
    close(connection->fd);
    instruments_->closed.Inc();
    instruments_->active.Add(-1);
  }
  connections_.clear();
  {
    std::lock_guard<std::mutex> lock(adopt_mutex_);
    for (int fd : adopt_pending_) close(fd);
    adopt_pending_.clear();
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_closed_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  // wake_fd_ / epoll_fd_ stay open: Wake()/RequestDrain() may still be
  // writing the eventfd from other threads (including a signal handler),
  // so those fds are owned by the Daemon object and close in ~Daemon, after
  // every thread that could touch them is joined.

  io_done_.store(true, std::memory_order_release);
  join_cv_.notify_all();
}

void Daemon::AcceptReady() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_CLOEXEC | SOCK_NONBLOCK);
    if (fd < 0) return;
    if (drain_.load(std::memory_order_acquire) ||
        (options_.max_connections != 0 &&
         connections_.size() >= options_.max_connections)) {
      instruments_->refused.Inc();
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    instruments_->accepted.Inc();
    AddConnection(fd);
  }
}

void Daemon::AdoptPending() {
  std::vector<int> pending;
  {
    std::lock_guard<std::mutex> lock(adopt_mutex_);
    pending.swap(adopt_pending_);
  }
  for (int fd : pending) {
    if (drain_.load(std::memory_order_acquire)) {
      close(fd);
      continue;
    }
    SetNonBlocking(fd);
    instruments_->adopted.Inc();
    AddConnection(fd);
  }
}

void Daemon::AddConnection(int fd) {
  const std::uint64_t id = next_connection_id_++;
  auto connection = std::make_unique<Connection>(id, fd, options_);
  connection->deadline_at =
      Clock::now() + std::chrono::nanoseconds(options_.connection_deadline_ns);
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = id;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
  connections_.emplace(id, std::move(connection));
  instruments_->active.Add(1);
}

void Daemon::ReadReady(Connection& connection) {
  char buffer[65536];
  while (true) {
    const ssize_t n = recv(connection.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      instruments_->bytes_rx.Inc(static_cast<std::uint64_t>(n));
      HandleInput(connection, buffer, static_cast<std::size_t>(n));
      // HandleInput may close on protocol violations.
      if (connections_.find(connection.id) == connections_.end()) return;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error.
    if (connection.in_flight == 0 &&
        connection.out_offset == connection.out.size()) {
      CloseConnection(connection.id);
    } else {
      connection.peer_closed = true;
    }
    return;
  }
}

void Daemon::HandleInput(Connection& connection, const char* data,
                         std::size_t size) {
  if (connection.protocol == Connection::Protocol::kUnknown) {
    connection.detect.append(data, size);
    const std::string_view magic("PPRF", 4);
    const std::size_t have = std::min<std::size_t>(connection.detect.size(), 4);
    if (connection.detect.compare(0, have, magic.substr(0, have)) == 0) {
      if (have < 4) return;  // still ambiguous, wait for more bytes
      connection.protocol = Connection::Protocol::kBinary;
    } else {
      connection.protocol = Connection::Protocol::kHttp;
    }
    const std::string detect = std::move(connection.detect);
    connection.detect.clear();
    HandleInput(connection, detect.data(), detect.size());
    return;
  }

  if (connection.protocol == Connection::Protocol::kBinary) {
    if (!connection.assembler.Feed(data, size).ok()) {
      instruments_->bad_frames.Inc();
      CloseConnection(connection.id);
      return;
    }
    Frame frame;
    while (connection.assembler.Next(&frame)) {
      DispatchBinary(connection, std::move(frame));
      if (connections_.find(connection.id) == connections_.end()) return;
    }
    return;
  }

  // HTTP.
  const HttpAccumulator::State state =
      connection.http.Feed(std::string_view(data, size));
  if (state == HttpAccumulator::State::kError) {
    QueueOutput(connection,
                RenderHttpResponse(400, "Bad Request", "text/plain",
                                   connection.http.status().message() + "\n"),
                /*close_after=*/true);
    return;
  }
  if (state == HttpAccumulator::State::kComplete) DispatchHttp(connection);
}

void Daemon::DispatchBinary(Connection& connection, Frame frame) {
  switch (frame.type) {
    case FrameType::kPing:
      QueueOutput(connection, EncodeFrame(FrameType::kPong, frame.body),
                  /*close_after=*/false);
      return;
    case FrameType::kRequest:
    case FrameType::kSweepRequest:
    case FrameType::kHardRequest:
    case FrameType::kConsensusRequest:
      break;
    case FrameType::kResponse:
    case FrameType::kPong:
    case FrameType::kSweepResponse:
    case FrameType::kHardResponse:
    case FrameType::kConsensusResponse:
      // Clients send requests and pings; anything else is a violation.
      instruments_->bad_frames.Inc();
      CloseConnection(connection.id);
      return;
  }
  if (drain_.load(std::memory_order_acquire)) {
    // Shed without decoding the model: only the id is needed for a
    // well-formed refusal of the request's own response type.
    instruments_->shed_draining.Inc();
    QueueOutput(connection, WithKind(frame.type, [&](auto kind) {
                  return RefusalFrame<decltype(kind)>(
                      frame.body, Status::ResourceExhausted("daemon draining"));
                }),
                /*close_after=*/false);
    return;
  }
  instruments_->requests_binary.Inc();
  instruments_->CountKind(frame.type);
  ++connection.in_flight;
  Job job;
  job.conn_id = connection.id;
  job.kind = frame.type;
  job.body = std::move(frame.body);
  PushJob(std::move(job));
}

void Daemon::DispatchHttp(Connection& connection) {
  if (drain_.load(std::memory_order_acquire)) {
    instruments_->shed_draining.Inc();
    QueueOutput(connection,
                RenderHttpResponse(503, "Service Unavailable", "text/plain",
                                   "draining\n"),
                /*close_after=*/true);
    return;
  }
  instruments_->requests_http.Inc();
  ++connection.in_flight;
  Job job;
  job.conn_id = connection.id;
  job.http = true;
  job.request = connection.http.request();
  job.kind = HttpKind(job.request);
  if (job.kind.has_value()) instruments_->CountKind(*job.kind);
  PushJob(std::move(job));
}

void Daemon::QueueOutput(Connection& connection, std::string bytes,
                         bool close_after) {
  if (connection.out_offset == connection.out.size()) {
    connection.out.clear();
    connection.out_offset = 0;
  }
  connection.out += bytes;
  if (close_after) connection.close_after_flush = true;
  FlushOutput(connection);
}

void Daemon::FlushOutput(Connection& connection) {
  while (connection.out_offset < connection.out.size()) {
    const ssize_t n =
        send(connection.fd, connection.out.data() + connection.out_offset,
             connection.out.size() - connection.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      instruments_->bytes_tx.Inc(static_cast<std::uint64_t>(n));
      connection.out_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!connection.want_write) {
        connection.want_write = true;
        epoll_event event{};
        event.events = EPOLLIN | EPOLLOUT;
        event.data.u64 = connection.id;
        epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection.fd, &event);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    // Peer is gone; nothing left to deliver.
    CloseConnection(connection.id);
    return;
  }
  // Fully flushed.
  if (connection.want_write) {
    connection.want_write = false;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = connection.id;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection.fd, &event);
  }
  if (connection.in_flight == 0 &&
      (connection.close_after_flush || connection.peer_closed)) {
    CloseConnection(connection.id);
    return;
  }
  // Back to quiet: re-arm the idle deadline.
  connection.deadline_at =
      Clock::now() + std::chrono::nanoseconds(options_.connection_deadline_ns);
}

void Daemon::WriteReady(Connection& connection) { FlushOutput(connection); }

void Daemon::CloseConnection(std::uint64_t id) {
  auto it = connections_.find(id);
  if (it == connections_.end()) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  close(it->second->fd);
  connections_.erase(it);
  instruments_->closed.Inc();
  instruments_->active.Add(-1);
}

void Daemon::DrainCompletions() {
  std::vector<Completion> completions;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions.swap(completions_);
  }
  for (Completion& completion : completions) {
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // connection died meanwhile
    Connection& connection = *it->second;
    if (connection.in_flight > 0) --connection.in_flight;
    QueueOutput(connection, std::move(completion.bytes),
                completion.close_after);
  }
}

void Daemon::CloseExpiredConnections() {
  if (options_.connection_deadline_ns == 0) return;
  const Clock::time_point now = Clock::now();
  std::vector<std::uint64_t> expired;
  for (const auto& [id, connection] : connections_) {
    if (connection->in_flight == 0 && now >= connection->deadline_at) {
      expired.push_back(id);
    }
  }
  for (std::uint64_t id : expired) {
    instruments_->deadline_closes.Inc();
    CloseConnection(id);
  }
}

int Daemon::NextTimeoutMs() const {
  if (options_.connection_deadline_ns == 0) return 500;
  const Clock::time_point now = Clock::now();
  std::int64_t best_ms = 500;
  for (const auto& [id, connection] : connections_) {
    if (connection->in_flight != 0) continue;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          connection->deadline_at - now)
                          .count();
    if (left < best_ms) best_ms = left;
  }
  if (best_ms < 0) best_ms = 0;
  return static_cast<int>(best_ms);
}

// ---------------------------------------------------------------------------
// Workers

void Daemon::PushJob(Job job) {
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.push_back(std::move(job));
  }
  jobs_cv_.notify_one();
}

void Daemon::PushCompletion(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.push_back(std::move(completion));
  }
  Wake();
}

void Daemon::WorkerLoop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex_);
      jobs_cv_.wait(lock, [this] { return jobs_closed_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // closed and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }

    // Idempotent re-execution: a keyed request claims its table slot before
    // the expensive decode+evaluate. A replayed or coalesced retry costs no
    // serve-layer work at all; a waiter produces *no* completion here — the
    // owner's Publish fans the bytes out to every parked waiter.
    std::uint64_t idem_key = 0;
    if (idempotency_ != nullptr && job.kind == FrameType::kRequest) {
      if (job.http) {
        const std::string* header =
            job.request.Header("x-ppref-idempotency-key");
        std::uint64_t raw = 0;
        if (header != nullptr && ParseHeaderKey(*header, &raw)) {
          idem_key = HashCombine(kIdemPlaneHttp, raw);
        }
      } else {
        const std::uint64_t raw = PeekIdempotencyKey(job.body);
        if (raw != 0) {
          // The wire id is folded in so retained bytes echo the id their
          // requester sent (retries reuse id + key; see wire.h).
          idem_key = HashCombine(HashCombine(kIdemPlaneBinary, raw),
                                 PeekId(job.body, 0));
        }
      }
    }
    const bool http_close = job.http;  // HTTP is one-shot (Connection: close)
    if (idem_key != 0) {
      IdempotencyTable::Claim claim =
          idempotency_->Begin(idem_key, job.conn_id);
      if (claim.role == IdempotencyTable::Role::kReplay) {
        Completion completion;
        completion.conn_id = job.conn_id;
        completion.bytes = std::move(claim.replay_bytes);
        completion.close_after = http_close;
        PushCompletion(std::move(completion));
        continue;
      }
      if (claim.role == IdempotencyTable::Role::kWaiter) continue;
    }

    Completion completion;
    completion.conn_id = job.conn_id;
    bool retain = false;
    if (job.http) {
      completion.bytes =
          ExecuteHttp(job.request, job.kind,
                      drain_.load(std::memory_order_acquire), &retain);
      completion.close_after = true;
    } else {
      completion.bytes = ExecuteBinary(*job.kind, job.body, &retain);
      completion.close_after = false;
    }
    if (idem_key != 0) {
      const std::vector<std::uint64_t> waiters =
          idempotency_->Publish(idem_key, completion.bytes, retain);
      for (std::uint64_t waiter : waiters) {
        Completion coalesced;
        coalesced.conn_id = waiter;
        coalesced.bytes = completion.bytes;
        coalesced.close_after = http_close;
        PushCompletion(std::move(coalesced));
      }
    }
    PushCompletion(std::move(completion));
  }
}

std::string Daemon::ExecuteBinary(FrameType kind, std::string_view body,
                                  bool* retain_idem) {
  *retain_idem = false;
  return WithKind(kind, [&](auto tag) {
    using Kind = decltype(tag);
    StatusOr<typename Kind::Request> request = Kind::Decode(body);
    if (!request.ok()) return RefusalFrame<Kind>(body, request.status());
    const typename Kind::Response response = Kind::Execute(*server_, *request);
    *retain_idem = Retainable(response);
    return EncodeFrame(Kind::kResponseFrame, Kind::Encode(response));
  });
}

std::string Daemon::ExecuteHttp(const HttpRequest& request,
                                std::optional<FrameType> kind, bool draining,
                                bool* retain_idem) {
  *retain_idem = false;
  if (request.method == "GET") {
    if (request.target == "/healthz") {
      if (draining) {
        return RenderHttpResponse(503, "Service Unavailable", "text/plain",
                                  "draining\n");
      }
      return RenderHttpResponse(200, "OK", "text/plain", "ok\n");
    }
    if (request.target == "/metrics") {
      return RenderHttpResponse(200, "OK",
                                "text/plain; version=0.0.4; charset=utf-8",
                                server_->ScrapeMetrics());
    }
    if (request.target == "/metrics.json") {
      return RenderHttpResponse(200, "OK", "application/json",
                                server_->ScrapeMetricsJson());
    }
    return RenderHttpResponse(404, "Not Found", "text/plain", "not found\n");
  }
  if (request.method != "POST") {
    return RenderHttpResponse(405, "Method Not Allowed", "text/plain",
                              "method not allowed\n");
  }
  if (!kind.has_value()) {
    return RenderHttpResponse(404, "Not Found", "text/plain", "not found\n");
  }

  StatusOr<JsonValue> document = ParseJson(request.body);
  if (!document.ok()) return HttpBadRequest(document.status());
  return WithKind(*kind, [&](auto tag) {
    using Kind = decltype(tag);
    StatusOr<typename Kind::Request> wire = Kind::FromJson(*document);
    if (!wire.ok()) return HttpBadRequest(wire.status());
    const typename Kind::Response response = Kind::Execute(*server_, *wire);
    *retain_idem = Retainable(response);
    return RenderHttpResponse(200, "OK", "application/json",
                              Kind::ToJson(response));
  });
}

}  // namespace ppref::net
