/// \file sampler_test.cc
/// \brief hard::sampler contract tests: the block decomposition covers the
/// budget exactly (also near UINT_MAX), and each block draws from its own
/// seeded stream whatever thread runs it.

#include "ppref/hard/sampler.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "ppref/common/random.h"
#include "ppref/rim/mallows.h"
#include "ppref/rim/ranking.h"
#include "ppref/rim/sampler.h"

namespace ppref::hard {
namespace {

TEST(HardSamplerTest, BlockDecompositionCoversBudgetExactly) {
  EXPECT_EQ(SeededBlockCount(1, 1024), 1u);
  EXPECT_EQ(SeededBlockCount(1024, 1024), 1u);
  EXPECT_EQ(SeededBlockCount(1025, 1024), 2u);
  EXPECT_EQ(SeededBlockCount(4096, 1024), 4u);

  // Blocks tile [0, samples) without gaps or overlap; the last is short.
  const unsigned samples = 2500;
  const unsigned block_samples = 1024;
  unsigned covered = 0;
  const unsigned blocks = SeededBlockCount(samples, block_samples);
  for (unsigned b = 0; b < blocks; ++b) {
    const SampleBlock block = SeededBlockAt(b, samples, block_samples);
    EXPECT_EQ(block.index, b);
    EXPECT_EQ(block.begin, covered);
    EXPECT_GT(block.end, block.begin);
    covered = block.end;
  }
  EXPECT_EQ(covered, samples);
}

TEST(HardSamplerTest, BlockArithmeticDoesNotWrapNearUintMax) {
  // Arithmetic only: no block is run. A budget within one block of
  // UINT_MAX used to wrap the block count to 0.
  const unsigned max = std::numeric_limits<unsigned>::max();
  EXPECT_EQ(SeededBlockCount(max, 1024), 4194304u);
  EXPECT_EQ(SeededBlockCount(max - 100, 1024), 4194304u);
  EXPECT_EQ(SeededBlockCount(max, max), 1u);
  const SampleBlock last = SeededBlockAt(4194303u, max, 1024);
  EXPECT_EQ(last.begin, 4194303u * 1024u);
  EXPECT_EQ(last.end, max);
  EXPECT_EQ(SeededBlockAt(0, max, max).end, max);
}

TEST(HardSamplerTest, RunSeededBlocksGivesEachBlockItsOwnStream) {
  // Block b's stream is Rng(HashCombine(seed, b)) regardless of which
  // thread runs it: collecting the first world of each block must give the
  // same sequence serially and in parallel.
  const rim::MallowsModel model(rim::Ranking::Identity(6), 0.5);
  const auto collect = [&](unsigned threads) {
    std::vector<rim::Ranking> firsts(4, rim::Ranking::Identity(6));
    RunSeededBlocks(0, 4, 4096, 1024, 7, threads, nullptr,
                    [&](const SampleBlock& block, Rng& rng) {
                      firsts[block.index] = rim::SampleRanking(model.rim(),
                                                               rng);
                    });
    return firsts;
  };
  const std::vector<rim::Ranking> serial = collect(1);
  const std::vector<rim::Ranking> parallel = collect(4);
  for (unsigned b = 0; b < 4; ++b) {
    EXPECT_EQ(serial[b], parallel[b]) << "block " << b;
  }
  // Distinct blocks draw from distinct streams (collision would mean the
  // block index is not feeding the seed).
  EXPECT_FALSE(serial[0] == serial[1] && serial[1] == serial[2] &&
               serial[2] == serial[3]);
}

}  // namespace
}  // namespace ppref::hard
