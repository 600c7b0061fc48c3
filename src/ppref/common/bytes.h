/// \file bytes.h
/// \brief Little-endian byte-level encoding helpers shared by the on-disk
/// store (store/), plan serialization (infer/internal/dp_plan), and tests.
///
/// Writers append to a `std::string`; the reader is a bounds-checked cursor
/// over a `std::string_view` that goes sticky-invalid on the first overrun
/// (mirroring `net::FrameAssembler`'s sticky-error idiom): every accessor
/// after an overrun returns zero and `ok()` stays false, so decode routines
/// can run straight-line and check validity once at the end — no partially
/// trusted values escape, because callers must treat `!ok()` as corruption.
///
/// Doubles travel as their IEEE-754 bit patterns (the `MixDouble` convention
/// of common/hash.h), making every round-trip bit-exact — the store's
/// bit-identity contract rests on this.
///
/// The byte order is the host's, and the host must be little-endian (a
/// static_assert below says so): scalars and whole arrays are then one
/// `memcpy` each, which is what lets the bulk writers (`PutU32s`,
/// `PutDoubles`) and the bulk reads (`ByteReader::U32s`/`Doubles`) move a
/// model's insertion table at memory speed.

#ifndef PPREF_COMMON_BYTES_H_
#define PPREF_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace ppref {

static_assert(std::endian::native == std::endian::little,
              "the byte codecs copy host-order words as little-endian bytes");

inline void PutU8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

inline void PutU32(std::string& out, std::uint32_t value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline void PutU64(std::string& out, std::uint64_t value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline void PutDouble(std::string& out, double value) {
  PutU64(out, std::bit_cast<std::uint64_t>(value));
}

/// Bulk writers: the same bytes as one scalar Put per element, appended as
/// one copy.
inline void PutU32s(std::string& out, std::span<const std::uint32_t> values) {
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size_bytes());
}

inline void PutDoubles(std::string& out, std::span<const double> values) {
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size_bytes());
}

/// Unaligned little-endian loads from raw buffers (segment scans).
inline std::uint32_t LoadU32(const char* p) {
  std::uint32_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

inline std::uint64_t LoadU64(const char* p) {
  std::uint64_t value = 0;
  std::memcpy(&value, p, sizeof(value));
  return value;
}

/// Bounds-checked forward cursor; see file comment for the sticky-error
/// contract.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint8_t U8() {
    if (!Ensure(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::uint32_t U32() {
    if (!Ensure(4)) return 0;
    const std::uint32_t value = LoadU32(bytes_.data() + pos_);
    pos_ += 4;
    return value;
  }

  std::uint64_t U64() {
    if (!Ensure(8)) return 0;
    const std::uint64_t value = LoadU64(bytes_.data() + pos_);
    pos_ += 8;
    return value;
  }

  double Double() { return std::bit_cast<double>(U64()); }

  /// Bulk reads: fill `out` with the next `out.size()` elements, or with
  /// zeros (and `ok()` false) when fewer remain.
  void U32s(std::span<std::uint32_t> out) {
    Copy(out.data(), out.size_bytes());
  }
  void Doubles(std::span<double> out) { Copy(out.data(), out.size_bytes()); }

  /// A view of the next `n` bytes (into the underlying buffer), or empty
  /// with `ok()` false when fewer remain.
  std::string_view Bytes(std::size_t n) {
    if (!Ensure(n)) return {};
    const std::string_view view = bytes_.substr(pos_, n);
    pos_ += n;
    return view;
  }

  /// Everything not yet consumed (does not advance).
  std::string_view Rest() const { return ok_ ? bytes_.substr(pos_) : ""; }

 private:
  bool Ensure(std::size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  void Copy(void* out, std::size_t n) {
    if (n == 0) return;
    if (!Ensure(n)) {
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ppref

#endif  // PPREF_COMMON_BYTES_H_
