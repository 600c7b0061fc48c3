#include "ppref/net/client.h"

#include <unistd.h>

#include "ppref/net/codec.h"
#include "ppref/net/internal/io.h"

namespace ppref::net {

namespace internal_io = ::ppref::net::internal;

Client::Client(int fd, Options options)
    : fd_(fd), options_(options), assembler_(options.max_frame_body) {}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      options_(other.options_),
      assembler_(std::move(other.assembler_)),
      ping_counter_(other.ping_counter_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = other.fd_;
    options_ = other.options_;
    assembler_ = std::move(other.assembler_);
    ping_counter_ = other.ping_counter_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

StatusOr<Client> Client::Connect(const std::string& host, int port,
                                 Options options) {
  StatusOr<int> fd = internal_io::ConnectTcp(
      host, port, internal_io::DeadlineAfterMs(options.total_deadline_ms));
  if (!fd.ok()) return fd.status();
  return Client(*fd, options);
}

Client Client::FromFd(int fd, Options options) { return Client(fd, options); }

Status Client::WriteAll(std::string_view bytes, std::uint64_t deadline_ns) {
  return internal_io::WriteFull(fd_, bytes, options_.io_timeout_ms,
                                deadline_ns);
}

StatusOr<Frame> Client::ReadFrame(std::uint64_t deadline_ns) {
  Frame frame;
  while (true) {
    if (assembler_.Next(&frame)) return frame;
    char buffer[65536];
    StatusOr<std::size_t> n = internal_io::ReadSome(
        fd_, buffer, sizeof(buffer), options_.io_timeout_ms, deadline_ns);
    if (!n.ok()) return n.status();
    if (*n == 0) return Status::Internal("connection closed by peer");
    Status fed = assembler_.Feed(buffer, *n);
    if (!fed.ok()) return fed;
  }
}

template <typename Request, typename Response>
StatusOr<Response> Client::RoundTrip(
    const Request& request, FrameType type,
    std::string (*encode)(const Request&), FrameType reply,
    StatusOr<Response> (*decode)(std::string_view)) {
  const std::uint64_t deadline =
      internal_io::DeadlineAfterMs(options_.total_deadline_ms);
  Status written = WriteAll(EncodeFrame(type, encode(request)), deadline);
  if (!written.ok()) return written;
  while (true) {
    StatusOr<Frame> frame = ReadFrame(deadline);
    if (!frame.ok()) return frame.status();
    if (frame->type == FrameType::kPong) continue;
    if (frame->type != reply) {
      return Status::Internal("unexpected frame type from server");
    }
    StatusOr<Response> response = decode(frame->body);
    if (!response.ok()) return response.status();
    if (response->id != request.id) {
      return Status::Internal("response id mismatch");
    }
    return response;
  }
}

StatusOr<WireResponse> Client::Call(const WireRequest& request) {
  return RoundTrip(request, FrameType::kRequest, &EncodeRequest,
                   FrameType::kResponse, &DecodeResponse);
}

StatusOr<WireSweepResponse> Client::CallSweep(const WireSweepRequest& request) {
  return RoundTrip(request, FrameType::kSweepRequest, &EncodeSweepRequest,
                   FrameType::kSweepResponse, &DecodeSweepResponse);
}

StatusOr<WireHardResponse> Client::CallHard(const WireHardRequest& request) {
  return RoundTrip(request, FrameType::kHardRequest, &EncodeHardRequest,
                   FrameType::kHardResponse, &DecodeHardResponse);
}

StatusOr<WireConsensusResponse> Client::CallConsensus(
    const WireConsensusRequest& request) {
  return RoundTrip(request, FrameType::kConsensusRequest,
                   &EncodeConsensusRequest, FrameType::kConsensusResponse,
                   &DecodeConsensusResponse);
}

Status Client::Ping() {
  const std::uint64_t deadline =
      internal_io::DeadlineAfterMs(options_.total_deadline_ms);
  char payload[8];
  const std::uint64_t token = ++ping_counter_;
  for (int i = 0; i < 8; ++i) {
    payload[i] = static_cast<char>((token >> (8 * i)) & 0xff);
  }
  Status written =
      WriteAll(EncodeFrame(FrameType::kPing,
                           std::string_view(payload, sizeof(payload))),
               deadline);
  if (!written.ok()) return written;
  StatusOr<Frame> frame = ReadFrame(deadline);
  if (!frame.ok()) return frame.status();
  if (frame->type != FrameType::kPong ||
      frame->body != std::string_view(payload, sizeof(payload))) {
    return Status::Internal("bad pong");
  }
  return Status::Ok();
}

StatusOr<HttpResult> HttpFetch(const std::string& host, int port,
                               const std::string& method,
                               const std::string& target,
                               const std::string& body,
                               std::uint64_t io_timeout_ms,
                               std::uint64_t total_deadline_ms,
                               const std::string& extra_headers) {
  const std::uint64_t deadline =
      internal_io::DeadlineAfterMs(total_deadline_ms);
  StatusOr<int> connected = internal_io::ConnectTcp(host, port, deadline);
  if (!connected.ok()) return connected.status();
  const int fd = *connected;

  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: " + host + "\r\n";
  request += "Connection: close\r\n";
  request += extra_headers;
  if (!body.empty()) {
    request += "Content-Type: application/json\r\n";
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;

  Status written =
      internal_io::WriteFull(fd, request, io_timeout_ms, deadline);
  if (!written.ok()) {
    close(fd);
    return written;
  }

  std::string raw;
  while (true) {
    char buffer[65536];
    StatusOr<std::size_t> n = internal_io::ReadSome(
        fd, buffer, sizeof(buffer), io_timeout_ms, deadline);
    if (!n.ok()) {
      close(fd);
      return n.status();
    }
    if (*n == 0) break;  // daemon closed: response complete
    raw.append(buffer, *n);
  }
  close(fd);

  // "HTTP/1.1 NNN Reason\r\n…headers…\r\n\r\nbody"
  const std::size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos || raw.compare(0, 5, "HTTP/") != 0) {
    return Status::Internal("malformed HTTP response");
  }
  const std::size_t space = raw.find(' ');
  if (space == std::string::npos || space + 4 > line_end) {
    return Status::Internal("malformed HTTP status line");
  }
  HttpResult result;
  result.status_code = 0;
  for (std::size_t i = space + 1; i < space + 4; ++i) {
    if (raw[i] < '0' || raw[i] > '9') {
      return Status::Internal("malformed HTTP status code");
    }
    result.status_code = result.status_code * 10 + (raw[i] - '0');
  }
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::Internal("truncated HTTP response");
  }
  result.body = raw.substr(header_end + 4);
  return result;
}

}  // namespace ppref::net
