/// \file bytes_test.cc
/// \brief The bulk writers and reads of common/bytes.h produce exactly the
/// bytes of their scalar forms, and a bulk read past the end goes sticky
/// like every other accessor.

#include "ppref/common/bytes.h"

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace ppref {
namespace {

TEST(BytesTest, BulkWritersMatchScalarWriters) {
  const std::vector<std::uint32_t> words = {0, 1, 0xDEADBEEFu, 0xFFFFFFFFu};
  const std::vector<double> doubles = {0.0, -0.0, 0.25, 1e-300, -7.5};
  std::string scalar;
  for (std::uint32_t word : words) PutU32(scalar, word);
  for (double value : doubles) PutDouble(scalar, value);
  std::string bulk;
  PutU32s(bulk, words);
  PutDoubles(bulk, doubles);
  EXPECT_EQ(bulk, scalar);
  // Little-endian on the wire.
  EXPECT_EQ(scalar.substr(8, 4), std::string("\xEF\xBE\xAD\xDE"));
}

TEST(BytesTest, BulkReadsRoundTrip) {
  const std::vector<std::uint32_t> words = {3, 1, 4, 1, 5};
  const std::vector<double> doubles = {0.5, 0.125, -2.0};
  std::string bytes;
  PutU32s(bytes, words);
  PutDoubles(bytes, doubles);
  ByteReader reader(bytes);
  std::vector<std::uint32_t> words_out(words.size());
  std::vector<double> doubles_out(doubles.size());
  reader.U32s(words_out);
  reader.Doubles(doubles_out);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(words_out, words);
  EXPECT_EQ(doubles_out, doubles);
}

TEST(BytesTest, BulkReadPastTheEndIsStickyAndZeroed) {
  std::string bytes;
  PutDoubles(bytes, std::vector<double>{1.0, 2.0});
  ByteReader reader(bytes);
  std::vector<double> out = {9.0, 9.0, 9.0};
  reader.Doubles(out);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.0, 0.0}));
  // Nothing was consumed, and later reads stay failed.
  EXPECT_EQ(reader.remaining(), bytes.size());
  EXPECT_EQ(reader.U32(), 0u);
  EXPECT_FALSE(reader.ok());
}

}  // namespace
}  // namespace ppref
