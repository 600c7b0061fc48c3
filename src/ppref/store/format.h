/// \file format.h
/// \brief The PPST on-disk segment format — layout constants and headers.
///
/// A segment file is a 16-byte file header followed by length-prefixed,
/// CRC-protected records:
///
///   offset 0   u32  magic            "PPST" (0x54535050 little-endian)
///   offset 4   u32  format_version   currently 2 (see kFormatVersion)
///   offset 8   u64  reserved         must be 0
///
///   record (aligned to a 16-byte file offset):
///   offset 0   u32  crc32            over header bytes [4, 32) + payload
///   offset 4   u32  payload_len      bytes of payload that follow
///   offset 8   u64  key              64-bit content fingerprint
///   offset 16  u8   kind             RecordKind
///   offset 17  u8[7] pad             must be 0
///   offset 24  u64  reserved         must be 0
///   offset 32  payload, then zero padding to the next 16-byte boundary
///
/// All integers are little-endian. Doubles inside payloads travel as their
/// IEEE-754 bit patterns (common/hash.h's MixDouble convention), so a
/// round-trip through the store is bit-exact — the store serves the same
/// bit-identity contract the caches do.
///
/// The 16-byte record alignment is load-bearing for circuits: an mmap'ed
/// segment is page-aligned, record payloads start at 16-byte file offsets,
/// and the circuit codec pads its own header so the packed 16-byte node
/// records land 16-aligned in memory — `circuit::Circuit` can then borrow
/// the node arena straight out of the mapping (zero-copy load).
///
/// Crash safety: records are appended, never rewritten. A torn write leaves
/// a suffix whose CRC (or header shape) cannot validate; recovery scans
/// from the front, keeps the longest valid prefix, and truncates the rest
/// (store/segment.h). A file whose *header* does not validate is rejected
/// with `Status::kInternal` — never an abort — so a corrupted store degrades
/// to cold-start, not an outage.

#ifndef PPREF_STORE_FORMAT_H_
#define PPREF_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace ppref::store {

/// "PPST" read as a little-endian u32.
inline constexpr std::uint32_t kSegmentMagic = 0x54535050u;

/// Bumped on any incompatible change — to the layout, or to the function
/// that computes record keys; readers reject other versions.
///   v1: keys are FNV-1a fingerprints.
///   v2: keys are common/hash.h word-wise fingerprints (same layout as v1).
inline constexpr std::uint32_t kFormatVersion = 2;

/// Segment file header size.
inline constexpr std::size_t kFileHeaderBytes = 16;

/// Record header size.
inline constexpr std::size_t kRecordHeaderBytes = 32;

/// Records (and therefore payloads) start at multiples of this.
inline constexpr std::size_t kRecordAlign = 16;

/// Hard cap on a single record payload (a circuit arena for the largest
/// models served today is ~10 MB; 256 MB is far beyond any legitimate
/// record and bounds what a corrupted length field can make a scan trust).
inline constexpr std::uint32_t kMaxPayloadBytes = 256u * 1024 * 1024;

/// What a record's payload decodes to. Values are part of the format.
enum class RecordKind : std::uint8_t {
  kPlan = 1,     // model + pattern + tracked + DpPlan derived state
  kCircuit = 2,  // compiled circuit arena (zero-copy mmap layout)
  kResult = 3,   // memoized probability (+ optional top matching)
};

/// True for the kinds a reader understands; anything else fails the scan.
inline constexpr bool IsKnownRecordKind(std::uint8_t kind) {
  return kind >= 1 && kind <= 3;
}

/// Rounds `offset` up to the next record boundary.
inline constexpr std::uint64_t AlignRecordOffset(std::uint64_t offset) {
  return (offset + (kRecordAlign - 1)) & ~static_cast<std::uint64_t>(kRecordAlign - 1);
}

}  // namespace ppref::store

#endif  // PPREF_STORE_FORMAT_H_
