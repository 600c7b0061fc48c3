#include "ppref/store/segment.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "ppref/common/bytes.h"
#include "ppref/common/crc32.h"
#include "ppref/common/status.h"
#include "ppref/store/format.h"

namespace ppref::store {
namespace {

/// A fresh path under the test temp dir; the file does not exist yet.
std::string TempPath(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = ::testing::TempDir();
  if (!path.empty() && path.back() != '/') path += '/';
  path += info->test_suite_name();
  path += '.';
  path += info->name();
  path += '.';
  path += name;
  std::remove(path.c_str());
  return path;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  ASSERT_EQ(std::fclose(file), 0);
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr);
  std::string out;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(file);
  return out;
}

/// A well-formed file header.
std::string FileHeader(std::uint32_t magic = kSegmentMagic,
                       std::uint32_t version = kFormatVersion,
                       std::uint64_t reserved = 0) {
  std::string header;
  PutU32(header, magic);
  PutU32(header, version);
  PutU64(header, reserved);
  return header;
}

TEST(StoreSegmentTest, WriterRoundTrip) {
  const std::string path = TempPath("seg");
  auto created = SegmentWriter::Create(path);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<SegmentWriter> writer = std::move(created).value();
  ASSERT_TRUE(writer->Append(RecordKind::kPlan, 0x1111, "plan payload").ok());
  ASSERT_TRUE(writer->Append(RecordKind::kResult, 0x2222, "").ok());
  ASSERT_TRUE(
      writer->Append(RecordKind::kCircuit, 0x3333, std::string(40, 'x')).ok());
  ASSERT_TRUE(writer->Sync().ok());
  writer.reset();

  auto opened = MappedSegment::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const std::shared_ptr<MappedSegment> segment = std::move(opened).value();
  ASSERT_EQ(segment->records().size(), 3u);
  EXPECT_EQ(segment->torn_bytes(), 0u);

  EXPECT_EQ(segment->records()[0].kind, RecordKind::kPlan);
  EXPECT_EQ(segment->records()[0].key, 0x1111u);
  EXPECT_EQ(std::string_view(segment->records()[0].payload,
                             segment->records()[0].size),
            "plan payload");
  EXPECT_EQ(segment->records()[1].kind, RecordKind::kResult);
  EXPECT_EQ(segment->records()[1].size, 0u);
  EXPECT_EQ(segment->records()[2].key, 0x3333u);
  EXPECT_EQ(segment->records()[2].size, 40u);

  // Payloads are 16-byte aligned in the mapping (the zero-copy contract).
  for (const RecordView& record : segment->records()) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(record.payload) % kRecordAlign,
              0u);
  }
}

TEST(StoreSegmentTest, EmptyStubOpensWithZeroRecords) {
  const std::string path = TempPath("stub");
  WriteFile(path, "PPS");  // shorter than the file header
  auto opened = MappedSegment::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE((*opened)->records().empty());
  EXPECT_EQ((*opened)->valid_bytes(), 0u);
}

TEST(StoreSegmentTest, BadMagicIsInternalNotAbort) {
  const std::string path = TempPath("magic");
  WriteFile(path, FileHeader(0xDEADBEEFu));
  auto opened = MappedSegment::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInternal);
}

TEST(StoreSegmentTest, BadVersionIsInternal) {
  const std::string path = TempPath("version");
  WriteFile(path, FileHeader(kSegmentMagic, kFormatVersion + 1));
  auto opened = MappedSegment::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInternal);
}

TEST(StoreSegmentTest, VersionOneSegmentIsRefusedByName) {
  // A v1 directory holds records keyed by the previous fingerprint
  // function; serving them would miss every key. Opening must fail and say
  // which version it found and which it expected.
  ASSERT_EQ(kFormatVersion, 2u);
  const std::string path = TempPath("v1");
  WriteFile(path, FileHeader(kSegmentMagic, 1));
  auto opened = MappedSegment::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInternal);
  EXPECT_NE(opened.status().message().find("version 1"), std::string::npos)
      << opened.status().message();
  EXPECT_NE(opened.status().message().find("(expected 2)"), std::string::npos)
      << opened.status().message();
}

TEST(StoreSegmentTest, NonzeroHeaderReservedIsInternal) {
  const std::string path = TempPath("reserved");
  WriteFile(path, FileHeader(kSegmentMagic, kFormatVersion, 7));
  auto opened = MappedSegment::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInternal);
}

TEST(StoreSegmentTest, TornTailIsTruncated) {
  const std::string path = TempPath("torn");
  std::string image = FileHeader();
  AppendRecord(image, RecordKind::kPlan, 1, "first");
  AppendRecord(image, RecordKind::kResult, 2, "second");
  const std::size_t clean_bytes = image.size();
  // A crash mid-append: half a record header's worth of garbage.
  AppendRecord(image, RecordKind::kResult, 3, "third never made it");
  image.resize(clean_bytes + kRecordHeaderBytes + 2);
  WriteFile(path, image);

  auto opened = MappedSegment::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const std::shared_ptr<MappedSegment> segment = std::move(opened).value();
  ASSERT_EQ(segment->records().size(), 2u);
  EXPECT_EQ(segment->valid_bytes(), clean_bytes);
  EXPECT_GT(segment->torn_bytes(), 0u);
  EXPECT_EQ(std::string_view(segment->records()[1].payload,
                             segment->records()[1].size),
            "second");
  // The tail is gone from disk too: a re-open sees a clean file.
  EXPECT_EQ(ReadFileBytes(path).size(), clean_bytes);
  auto reopened = MappedSegment::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->records().size(), 2u);
  EXPECT_EQ((*reopened)->torn_bytes(), 0u);
}

TEST(StoreSegmentTest, CorruptPayloadEndsTheValidPrefix) {
  const std::string path = TempPath("crc");
  std::string image = FileHeader();
  AppendRecord(image, RecordKind::kPlan, 1, "kept");
  const std::size_t clean_bytes = image.size();
  AppendRecord(image, RecordKind::kResult, 2, "damaged in flight");
  image[clean_bytes + kRecordHeaderBytes] ^= 0x01;  // flip a payload bit
  WriteFile(path, image);

  auto opened = MappedSegment::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ((*opened)->records().size(), 1u);
  EXPECT_EQ((*opened)->valid_bytes(), clean_bytes);
}

TEST(StoreSegmentTest, CorruptRecordHeaderEndsTheValidPrefix) {
  const std::string path = TempPath("hdr");
  std::string image = FileHeader();
  AppendRecord(image, RecordKind::kPlan, 1, "kept");
  const std::size_t clean_bytes = image.size();
  AppendRecord(image, RecordKind::kResult, 2, "after");
  image[clean_bytes + 8] ^= 0x40;  // corrupt the key field
  WriteFile(path, image);

  auto opened = MappedSegment::Open(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ((*opened)->records().size(), 1u);
}

TEST(StoreSegmentTest, UnknownRecordKindEndsTheValidPrefix) {
  const std::string path = TempPath("kind");
  std::string image = FileHeader();
  AppendRecord(image, RecordKind::kPlan, 1, "kept");
  const std::size_t clean_bytes = image.size();
  AppendRecord(image, RecordKind::kResult, 2, "bad kind");
  // Patch the kind byte to an unknown value and fix the CRC so only the
  // kind check can reject it.
  std::string record = image.substr(clean_bytes);
  record[16] = 0x7F;
  std::string patched;
  PutU32(patched, 0);  // placeholder crc
  patched.append(record, 4, std::string::npos);
  const std::size_t payload_len = strlen("bad kind");
  std::uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, patched.data() + 4, kRecordHeaderBytes - 4);
  crc = Crc32Update(crc, patched.data() + kRecordHeaderBytes, payload_len);
  std::string fixed;
  PutU32(fixed, Crc32Final(crc));
  patched.replace(0, 4, fixed);
  image.resize(clean_bytes);
  image += patched;
  WriteFile(path, image);

  auto opened = MappedSegment::Open(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ((*opened)->records().size(), 1u);
  EXPECT_GT((*opened)->torn_bytes(), 0u);
}

TEST(StoreSegmentTest, GarbageAfterHeaderYieldsZeroRecords) {
  const std::string path = TempPath("garbage");
  std::string image = FileHeader();
  image += std::string(64, '\xAB');
  WriteFile(path, image);
  auto opened = MappedSegment::Open(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE((*opened)->records().empty());
  EXPECT_EQ((*opened)->valid_bytes(), kFileHeaderBytes);
}

TEST(StoreSegmentTest, LargeRecordSurvives) {
  const std::string path = TempPath("large");
  std::string payload(1 << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 2654435761u >> 13);
  }
  auto created = SegmentWriter::Create(path);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE((*created)->Append(RecordKind::kCircuit, 9, payload).ok());
  ASSERT_TRUE((*created)->Sync().ok());
  created.value().reset();

  auto opened = MappedSegment::Open(path);
  ASSERT_TRUE(opened.ok());
  ASSERT_EQ((*opened)->records().size(), 1u);
  EXPECT_EQ(std::string_view((*opened)->records()[0].payload,
                             (*opened)->records()[0].size),
            payload);
}

}  // namespace
}  // namespace ppref::store
