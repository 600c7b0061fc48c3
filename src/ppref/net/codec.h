/// \file codec.h
/// \brief `ppref::net` — body codecs for request and response frames.
///
/// Layouts (all integers little-endian; doubles as their IEEE-754 bit
/// pattern in a little-endian u64 — *never* text, so answers survive the
/// wire bit-exactly). The codec writes and reads through common/bytes.h,
/// moving each array (reference order, insertion row, label list) as one
/// bulk copy; the bytes are exactly those of the earlier element-at-a-time
/// codec, so the protocol version is unchanged (golden bytes in
/// tests/net/codec_test.cc pin this):
///
/// ### Request body (FrameType::kRequest)
/// ```
/// u64 id            u8 kind            u8 flags           u8[2] reserved (0)
/// u64 deadline_ns
/// [u64 idempotency_key]                        (iff flags bit 0)
/// u32 m             u32[m] reference order (a permutation of 0..m-1)
/// f64[1+2+…+m] insertion rows, row t carrying t+1 entries
/// per item: u32 label_count, u32[label_count] labels
/// u32 node_count    u32[node_count] node labels (distinct)
/// u32 edge_count    (u32 from, u32 to)[edge_count] node indices
/// ```
///
/// ### Response body (FrameType::kResponse)
/// ```
/// u64 id
/// u8 status_code    u8 approximate     u8 has_top_matching   u8 reserved (0)
/// u32 message_len   bytes message
/// f64 probability   f64 std_error      u64 retry_after_ns
/// [u32 match_len    u32[match_len] items]        (iff has_top_matching)
/// ```
///
/// ### Sweep request body (FrameType::kSweepRequest)
/// ```
/// u32 base_len      bytes base         — a standard request body
///                                        (kind must be pattern_prob; its
///                                        id/deadline govern the sweep)
/// u32 point_count
/// per point: u32 len (1 or m), f64[len] dispersions in (0, 1]
/// ```
///
/// ### Sweep response body (FrameType::kSweepResponse)
/// ```
/// u64 id
/// u8 status_code    u8[3] reserved (0)
/// u32 message_len   bytes message
/// u32 count         f64[count] probabilities
/// ```
///
/// ### Hard request body (FrameType::kHardRequest)
/// ```
/// u32 base_len      bytes base         — a standard request body
///                                        (kind must be pattern_prob; its
///                                        id/deadline govern the query)
/// f64 target_half_width                — in [0, 1]; 0 = server default
/// ```
///
/// ### Hard response body (FrameType::kHardResponse)
/// ```
/// u64 id
/// u8 status_code    u8 target_met      u8 deadline_limited   u8 reserved (0)
/// u32 message_len   bytes message
/// f64 estimate      f64 std_error      u64 n_samples
/// ```
///
/// ### Consensus request body (FrameType::kConsensusRequest)
/// ```
/// u32 base_len      bytes base         — a standard request body with an
///                                        *empty* pattern (kind must be
///                                        pattern_prob; id/deadline govern)
/// u32 top_k                            — >= 1
/// ```
///
/// ### Consensus response body (FrameType::kConsensusResponse)
/// ```
/// u64 id
/// u8 status_code    u8[3] reserved (0)
/// u32 message_len   bytes message
/// u32 ranking_len   u32[ranking_len] items
/// f64 mean_footrule f64 footrule_std_error
/// f64 mean_kendall  f64 kendall_std_error
/// u64 n_samples
/// ```
///
/// ## The no-abort contract
/// `DecodeRequest` is the daemon's trust boundary. The model constructors it
/// ultimately calls (`Ranking`, `InsertionFunction`, `LabelPattern::AddNode`
/// …) enforce *internal* invariants with PPREF_CHECK, which aborts — correct
/// for programmer error, fatal for a server fed hostile bytes. So the
/// decoder re-validates every constructor precondition itself first —
/// permutation-ness, row sums within `InsertionFunction::kRowSumTolerance`,
/// non-negative finite probabilities, distinct pattern nodes, no self-loop
/// edges, in-range indices, bounded sizes — and returns `kInvalidArgument`
/// for any violation. The fuzz suite (tests/net/codec_test.cc) hammers this:
/// no byte soup may crash, over-read, or abort. Trailing bytes after a
/// well-formed body are also an error — a length lie somewhere upstream.
///
/// Decoded sizes are additionally capped (`kMaxWireItems`, `kMaxWireNodes`,
/// `kMaxWireLabelsPerItem`) so a declared-length attack cannot make the
/// decoder allocate unboundedly before validation catches up.

#ifndef PPREF_NET_CODEC_H_
#define PPREF_NET_CODEC_H_

#include <string>
#include <string_view>

#include "ppref/common/status.h"
#include "ppref/net/wire.h"

namespace ppref::net {

/// Decoder-side size caps. The serve layer's own guards (max_pattern_nodes,
/// the DP's 16-bit positions) are policy; these are plumbing bounds that
/// keep a hostile length field from costing memory.
inline constexpr unsigned kMaxWireItems = 4096;
inline constexpr unsigned kMaxWireNodes = 64;
inline constexpr unsigned kMaxWireLabelsPerItem = 64;
inline constexpr unsigned kMaxWirePoints = 8192;

/// Flags-byte bits of the request preamble. Undefined bits must be zero
/// (decode error) — they are the format's forward-compatibility reserve.
inline constexpr std::uint8_t kRequestFlagIdempotencyKey = 0x01;

/// Request body bytes (frame it with FrameType::kRequest).
std::string EncodeRequest(const WireRequest& request);

/// Best-effort extraction of the idempotency key from an *encoded* request
/// body, without decoding (the daemon claims its dedup slot before the
/// expensive decode+evaluate). Returns 0 — "unkeyed" — when the body is too
/// short or the flag is unset; a body that lies about the flag fails the
/// full decode afterwards.
std::uint64_t PeekIdempotencyKey(std::string_view body);

/// Parses and fully validates a request body. kInvalidArgument on any
/// malformed input; never aborts, throws, or over-reads.
StatusOr<WireRequest> DecodeRequest(std::string_view body);

/// Response body bytes (frame it with FrameType::kResponse).
std::string EncodeResponse(const WireResponse& response);

/// Parses a response body (client side). Same failure contract as
/// DecodeRequest.
StatusOr<WireResponse> DecodeResponse(std::string_view body);

/// Sweep request body bytes (frame it with FrameType::kSweepRequest).
std::string EncodeSweepRequest(const WireSweepRequest& request);

/// Parses and fully validates a sweep request body: the embedded base
/// request under DecodeRequest's rules, plus point-count/arity/range checks
/// on the parameter grid. Same no-abort contract.
StatusOr<WireSweepRequest> DecodeSweepRequest(std::string_view body);

/// Sweep response body bytes (frame it with FrameType::kSweepResponse).
std::string EncodeSweepResponse(const WireSweepResponse& response);

/// Parses a sweep response body (client side).
StatusOr<WireSweepResponse> DecodeSweepResponse(std::string_view body);

/// Hard request body bytes (frame it with FrameType::kHardRequest).
std::string EncodeHardRequest(const WireHardRequest& request);

/// Parses and fully validates a hard request body: the embedded base request
/// under DecodeRequest's rules plus the target range check. Same no-abort
/// contract.
StatusOr<WireHardRequest> DecodeHardRequest(std::string_view body);

/// Hard response body bytes (frame it with FrameType::kHardResponse).
std::string EncodeHardResponse(const WireHardResponse& response);

/// Parses a hard response body (client side).
StatusOr<WireHardResponse> DecodeHardResponse(std::string_view body);

/// Consensus request body bytes (frame it with FrameType::kConsensusRequest).
std::string EncodeConsensusRequest(const WireConsensusRequest& request);

/// Parses and fully validates a consensus request body. The embedded base
/// must carry an empty pattern (there is exactly one wire form of each
/// consensus query). Same no-abort contract.
StatusOr<WireConsensusRequest> DecodeConsensusRequest(std::string_view body);

/// Consensus response body bytes (frame with FrameType::kConsensusResponse).
std::string EncodeConsensusResponse(const WireConsensusResponse& response);

/// Parses a consensus response body (client side).
StatusOr<WireConsensusResponse> DecodeConsensusResponse(std::string_view body);

}  // namespace ppref::net

#endif  // PPREF_NET_CODEC_H_
