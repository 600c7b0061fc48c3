#include "ppref/net/frame.h"

#include "ppref/common/bytes.h"

namespace ppref::net {
namespace {

bool KnownType(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(FrameType::kRequest) &&
         type <= static_cast<std::uint8_t>(FrameType::kConsensusResponse);
}

/// Validates one complete 12-byte header prefix.
Status ValidateHeader(const char* header, std::size_t max_body_bytes) {
  if (LoadU32(header) != kWireMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (static_cast<std::uint8_t>(header[4]) != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version");
  }
  if (!KnownType(static_cast<std::uint8_t>(header[5]))) {
    return Status::InvalidArgument("unknown frame type");
  }
  if (header[6] != 0 || header[7] != 0) {
    return Status::InvalidArgument("nonzero reserved frame flags");
  }
  if (LoadU32(header + 8) > max_body_bytes) {
    return Status::InvalidArgument("frame body exceeds size limit");
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view body) {
  std::string out;
  out.reserve(kFrameHeaderBytes + body.size());
  PutU32(out, kWireMagic);
  PutU8(out, kWireVersion);
  PutU8(out, static_cast<std::uint8_t>(type));
  out.append(2, '\0');  // flags
  PutU32(out, static_cast<std::uint32_t>(body.size()));
  out.append(body);
  return out;
}

Status FrameAssembler::Feed(const void* data, std::size_t size) {
  if (!status_.ok()) return status_;
  if (size != 0) buffer_.append(static_cast<const char*>(data), size);
  // Validate the header eagerly so a poisoned stream fails on the bytes that
  // poison it, not on the (possibly never-arriving) body completion. Only
  // the *next* unconsumed header can be validated — later bytes are body
  // payload until framing says otherwise.
  if (buffer_.size() - consumed_ >= kFrameHeaderBytes) {
    status_ = ValidateHeader(buffer_.data() + consumed_, max_body_bytes_);
  }
  return status_;
}

bool FrameAssembler::Next(Frame* out) {
  if (!status_.ok()) return false;
  const std::size_t pending = buffer_.size() - consumed_;
  if (pending < kFrameHeaderBytes) return false;
  const char* header = buffer_.data() + consumed_;
  const std::size_t body_len = LoadU32(header + 8);
  if (pending < kFrameHeaderBytes + body_len) return false;
  out->type = static_cast<FrameType>(static_cast<std::uint8_t>(header[5]));
  out->body.assign(header + kFrameHeaderBytes, body_len);
  consumed_ += kFrameHeaderBytes + body_len;
  // Compact once the parsed prefix dominates, so a long-lived connection
  // does not accrete its whole history.
  if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  // The header of the following frame (if already buffered) gets its eager
  // validation now.
  Feed(nullptr, 0);
  return true;
}

}  // namespace ppref::net
