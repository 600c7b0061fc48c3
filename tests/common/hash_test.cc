/// \file hash_test.cc
/// \brief Pins the cache-key function: golden digests, split invariance of
/// the bulk calls, and low-bit balance. Every persisted store key and every
/// seeded Monte Carlo stream derives from this function, so a change here
/// must come with a `store::kFormatVersion` bump.

#include "ppref/common/hash.h"

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "gtest/gtest.h"

namespace ppref {
namespace {

TEST(StreamHashTest, GoldenDigests) {
  EXPECT_EQ(StreamHash().digest(), 0x3fdf455f9dcf1e62ull);
  StreamHash one;
  one.Mix(0x0123456789ABCDEFull);
  EXPECT_EQ(one.digest(), 0x07def6bbc81a02a6ull);
  EXPECT_EQ(HashCombine(1, 2), 0xd05cfd0b1e1e798full);
}

TEST(StreamHashTest, BulkAndWordByWordFeedingAgree) {
  // Streams of length 0..9 cross every lane boundary. Each is split at
  // every point into a word-by-word prefix and a bulk suffix, and into two
  // bulk calls; all must match feeding every word with Mix.
  for (std::size_t n = 0; n <= 9; ++n) {
    std::vector<std::uint64_t> words(n);
    std::vector<double> doubles(n);
    for (std::size_t i = 0; i < n; ++i) {
      words[i] = 0x9E3779B97F4A7C15ull * (i + 1);
      doubles[i] = std::bit_cast<double>(words[i]);
    }
    StreamHash reference;
    for (std::uint64_t word : words) reference.Mix(word);

    for (std::size_t split = 0; split <= n; ++split) {
      StreamHash mixed;
      for (std::size_t i = 0; i < split; ++i) mixed.Mix(words[i]);
      mixed.MixDoubles(std::span(doubles).subspan(split));
      EXPECT_EQ(mixed.digest(), reference.digest()) << n << "/" << split;

      StreamHash bulk;
      bulk.MixDoubles(std::span(doubles).first(split));
      bulk.MixDoubles(std::span(doubles).subspan(split));
      EXPECT_EQ(bulk.digest(), reference.digest()) << n << "/" << split;
    }
  }
}

TEST(StreamHashTest, LengthAndOrderChangeTheDigest) {
  StreamHash a;
  a.Mix(0);
  StreamHash b;
  b.Mix(0);
  b.Mix(0);
  EXPECT_NE(StreamHash().digest(), a.digest());
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(StreamHashTest, LowBitsSpreadEvenlyOverShards) {
  // LRU shards select by a low-bit mask of the key: consecutive integer
  // inputs must land evenly on an 8-shard mask. Binomial σ ≈ 30 per shard.
  constexpr unsigned kShards = 8;
  constexpr unsigned kKeys = 8192;
  unsigned counts[kShards] = {};
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    StreamHash hash;
    hash.Mix(key);
    ++counts[hash.digest() & (kShards - 1)];
  }
  for (unsigned shard = 0; shard < kShards; ++shard) {
    EXPECT_NEAR(counts[shard], kKeys / kShards, 128) << "shard " << shard;
  }
}

}  // namespace
}  // namespace ppref
