/// \file client.h
/// \brief `ppref::net` — a small blocking client for the daemon.
///
/// The client is deliberately synchronous: one socket, one outstanding
/// request, `poll(2)`-bounded reads and writes. That is what the bench
/// harness forks by the dozen and what the e2e test replays traces through;
/// anything fancier (pipelining, multiplexing) belongs in a caller that
/// owns several clients.
///
/// `HttpFetch` is the matching one-shot HTTP helper (the daemon closes the
/// connection after each response, so one-shot is the protocol).

#ifndef PPREF_NET_CLIENT_H_
#define PPREF_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "ppref/common/status.h"
#include "ppref/net/frame.h"
#include "ppref/net/wire.h"

namespace ppref::net {

struct ClientOptions {
  /// Per-poll bound on any single read/write; 0 = block forever.
  std::uint64_t io_timeout_ms = 30000;
  /// Total wall-clock budget for one operation (Connect, Call, CallSweep,
  /// Ping), measured from its entry; 0 = no total bound. The per-poll
  /// `io_timeout_ms` catches a silent peer, but a peer that dribbles one
  /// byte per poll resets that clock forever — this budget converts such a
  /// stall into `kDeadlineExceeded`. The resilient client sets it to the
  /// per-attempt slice of the request deadline.
  std::uint64_t total_deadline_ms = 0;
  /// Frame body cap for responses (mirrors the daemon's request cap).
  std::size_t max_frame_body = kDefaultMaxBodyBytes;
};

/// Blocking binary-protocol client. Movable, not copyable; closes its fd on
/// destruction. Not thread-safe — one thread per client.
class Client {
 public:
  using Options = ClientOptions;

  /// Connects over TCP. `host` must be a numeric IPv4 address ("127.0.0.1")
  /// or "localhost".
  static StatusOr<Client> Connect(const std::string& host, int port,
                                  Options options = {});

  /// Wraps an already-connected stream socket (e.g. one end of a
  /// socketpair); takes ownership of the fd.
  static Client FromFd(int fd, Options options = {});

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Sends one request and blocks for its response. Interleaved pongs are
  /// skipped; a response whose id differs from `request.id` is an error
  /// (this client never has more than one request outstanding). IO errors,
  /// timeouts, and peer close all surface as non-ok Status; the remote
  /// request status rides inside the returned WireResponse untouched.
  StatusOr<WireResponse> Call(const WireRequest& request);

  /// Sends one parameter-sweep request and blocks for its answer, under the
  /// same single-outstanding-request discipline as Call.
  StatusOr<WireSweepResponse> CallSweep(const WireSweepRequest& request);

  /// Sends one hard-tier adaptive-estimate request and blocks for its
  /// answer, under the same discipline as Call.
  StatusOr<WireHardResponse> CallHard(const WireHardRequest& request);

  /// Sends one consensus top-k request and blocks for its answer, under the
  /// same discipline as Call.
  StatusOr<WireConsensusResponse> CallConsensus(
      const WireConsensusRequest& request);

  /// Round-trips a ping frame.
  Status Ping();

  int fd() const { return fd_; }

  /// Adjusts the per-operation total budget for subsequent operations (the
  /// resilient client re-budgets the remaining attempt time after connect).
  void set_total_deadline_ms(std::uint64_t ms) {
    options_.total_deadline_ms = ms;
  }

 private:
  Client(int fd, Options options);

  Status WriteAll(std::string_view bytes, std::uint64_t deadline_ns);
  StatusOr<Frame> ReadFrame(std::uint64_t deadline_ns);

  /// The one request/response exchange behind every Call*: sends `request`
  /// encoded into a `type` frame, skips interleaved pongs, and decodes the
  /// `reply` frame, whose id must echo the request's. The total deadline
  /// runs from entry, before the encode.
  template <typename Request, typename Response>
  StatusOr<Response> RoundTrip(const Request& request, FrameType type,
                               std::string (*encode)(const Request&),
                               FrameType reply,
                               StatusOr<Response> (*decode)(std::string_view));

  int fd_ = -1;
  Options options_;
  FrameAssembler assembler_;
  std::uint64_t ping_counter_ = 0;
};

/// One HTTP exchange against the daemon.
struct HttpResult {
  int status_code = 0;
  std::string body;
};

/// Connects, sends one `Connection: close` HTTP/1.1 request, reads to EOF,
/// returns the parsed status code and body. `body` non-empty implies a
/// Content-Length header and `application/json` content type.
/// `total_deadline_ms` (0 = none) bounds the whole exchange including the
/// connect, so a blackholed daemon surfaces as `kDeadlineExceeded` instead
/// of a per-poll-refreshed hang. `extra_headers`, when non-empty, is spliced
/// verbatim into the header block and must be complete CRLF-terminated
/// header lines (e.g. "x-ppref-idempotency-key: 7\r\n").
StatusOr<HttpResult> HttpFetch(const std::string& host, int port,
                               const std::string& method,
                               const std::string& target,
                               const std::string& body = "",
                               std::uint64_t io_timeout_ms = 30000,
                               std::uint64_t total_deadline_ms = 0,
                               const std::string& extra_headers = "");

}  // namespace ppref::net

#endif  // PPREF_NET_CLIENT_H_
