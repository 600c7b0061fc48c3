/// \file hash.h
/// \brief Stable 64-bit streaming hashes for cache keys.
///
/// The serve layer keys its plan and result caches, the store keys its
/// records, and the Monte Carlo paths derive their seeds by content
/// fingerprints of models, patterns, and tracked-label sets. Those keys must
/// be *stable*: identical across processes, runs, and construction orders,
/// so a warmed cache file or a distributed shard map stays meaningful.
/// `std::hash` gives no such guarantee; this header fixes the function
/// instead, with length/tag words injected by the caller to keep adjacent
/// variable-length fields from colliding.
///
/// The function is word-wise: word i of the stream goes through an
/// xxHash64-style round (multiply, rotate, multiply) into lane i mod 4, so
/// a long run of words — a model's insertion table — is four independent
/// dependency chains rather than one. `digest()` merges the lanes with the
/// word count and applies an avalanche finalizer, because consumers read
/// the key's low bits directly (LRU shard masks, trace sampling). Integer
/// arithmetic only, so the digest is the same on every platform.
///
/// Changing this function changes every persisted key: bump
/// `store::kFormatVersion` with it (the golden digests in
/// tests/common/hash_test.cc and tests/serve/fingerprint_test.cc fail
/// first).

#ifndef PPREF_COMMON_HASH_H_
#define PPREF_COMMON_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace ppref {

/// Streaming hash over 64-bit words. Feed a canonical word sequence;
/// `digest()` is the fingerprint. The digest depends only on the word
/// sequence, not on how it was split between `Mix` and `MixDoubles`.
class StreamHash {
 public:
  /// Mixes one 64-bit word into the state.
  void Mix(std::uint64_t word) {
    std::uint64_t& lane = lanes_[count_ % kLanes];
    lane = Round(lane, word);
    ++count_;
  }

  /// Mixes a double by bit pattern. Distinct bit patterns (including ±0.0
  /// and NaN payloads) hash differently; callers that want -0.0 == 0.0 must
  /// normalize first. Cache keys prefer the strict reading: a perturbed
  /// parameter must change the key.
  void MixDouble(double value) { Mix(std::bit_cast<std::uint64_t>(value)); }

  /// Bulk form of `MixDouble`: the same digest as one call per element,
  /// with the four lanes advanced side by side.
  void MixDoubles(std::span<const double> values) {
    std::size_t i = 0;
    // Align to lane 0, then advance all four lanes per step.
    for (; i < values.size() && count_ % kLanes != 0; ++i) {
      MixDouble(values[i]);
    }
    std::uint64_t l0 = lanes_[0], l1 = lanes_[1], l2 = lanes_[2],
                  l3 = lanes_[3];
    for (; i + kLanes <= values.size(); i += kLanes) {
      l0 = Round(l0, std::bit_cast<std::uint64_t>(values[i]));
      l1 = Round(l1, std::bit_cast<std::uint64_t>(values[i + 1]));
      l2 = Round(l2, std::bit_cast<std::uint64_t>(values[i + 2]));
      l3 = Round(l3, std::bit_cast<std::uint64_t>(values[i + 3]));
      count_ += kLanes;
    }
    lanes_[0] = l0;
    lanes_[1] = l1;
    lanes_[2] = l2;
    lanes_[3] = l3;
    for (; i < values.size(); ++i) MixDouble(values[i]);
  }

  /// The current fingerprint.
  std::uint64_t digest() const {
    std::uint64_t h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
                      std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    for (std::uint64_t lane : lanes_) {
      h = (h ^ Round(0, lane)) * kPrime1 + kPrime4;
    }
    h += count_;
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr std::size_t kLanes = 4;
  static constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
  static constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
  static constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;

  static std::uint64_t Round(std::uint64_t lane, std::uint64_t word) {
    return std::rotl(lane + word * kPrime2, 31) * kPrime1;
  }

  std::uint64_t lanes_[kLanes] = {kPrime1 + kPrime2, kPrime2, 0,
                                  0 - kPrime1};
  std::uint64_t count_ = 0;
};

/// Order-dependent combination of two fingerprints (a distinct mix from
/// feeding `next` into the stream, for composing already-computed digests).
inline std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t next) {
  StreamHash hash;
  hash.Mix(seed);
  hash.Mix(next);
  return hash.digest();
}

}  // namespace ppref

#endif  // PPREF_COMMON_HASH_H_
