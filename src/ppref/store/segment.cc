#include "ppref/store/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "ppref/common/bytes.h"
#include "ppref/common/check.h"
#include "ppref/common/crc32.h"

namespace ppref::store {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

void AppendRecord(std::string& out, RecordKind kind, std::uint64_t key,
                  std::string_view payload) {
  PPREF_CHECK_MSG(payload.size() <= kMaxPayloadBytes, "record payload too large");
  PPREF_CHECK_MSG(out.size() % kRecordAlign == 0,
                  "record must start on an aligned offset");
  const std::size_t header_start = out.size();
  PutU32(out, 0);  // crc32 placeholder, patched below
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU64(out, key);
  out.push_back(static_cast<char>(kind));
  out.append(7, '\0');  // pad
  PutU64(out, 0);       // reserved
  out.append(payload);
  // The CRC covers everything after its own field: header bytes [4, 32) and
  // the payload (alignment padding excluded — it is not part of the record).
  const std::uint32_t crc =
      Crc32(out.data() + header_start + 4,
            kRecordHeaderBytes - 4 + payload.size());
  std::string patched;
  PutU32(patched, crc);
  out.replace(header_start, 4, patched);
  const std::size_t tail = out.size() % kRecordAlign;
  if (tail != 0) out.append(kRecordAlign - tail, '\0');
}

StatusOr<std::shared_ptr<MappedSegment>> MappedSegment::Open(std::string path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status status = Errno("fstat", path);
    ::close(fd);
    return status;
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  auto segment = std::shared_ptr<MappedSegment>(new MappedSegment(std::move(path)));

  if (size < kFileHeaderBytes) {
    // A crash between creat() and the header write leaves a stub; it holds
    // nothing, so it opens empty (the store deletes it).
    segment->torn_bytes_ = size;
    ::close(fd);
    return segment;
  }

  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) {
    const Status status = Errno("mmap", segment->path_);
    ::close(fd);
    return status;
  }
  const char* data = static_cast<const char*>(map);

  if (LoadU32(data) != kSegmentMagic) {
    ::munmap(map, size);
    ::close(fd);
    return Status::Internal("bad segment magic in " + segment->path_);
  }
  if (const std::uint32_t version = LoadU32(data + 4);
      version != kFormatVersion) {
    ::munmap(map, size);
    ::close(fd);
    return Status::Internal("unsupported segment format version " +
                            std::to_string(version) + " in " +
                            segment->path_ + " (expected " +
                            std::to_string(kFormatVersion) + ")");
  }
  if (LoadU64(data + 8) != 0) {
    ::munmap(map, size);
    ::close(fd);
    return Status::Internal("nonzero reserved header bytes in " +
                            segment->path_);
  }

  // Scan: keep the longest prefix of records that validate completely.
  std::uint64_t offset = kFileHeaderBytes;
  std::vector<RecordView> records;
  while (true) {
    const std::uint64_t start = AlignRecordOffset(offset);
    if (start + kRecordHeaderBytes > size) break;
    const char* header = data + start;
    const std::uint32_t stored_crc = LoadU32(header);
    const std::uint32_t payload_len = LoadU32(header + 4);
    const std::uint64_t key = LoadU64(header + 8);
    const std::uint8_t kind = static_cast<std::uint8_t>(header[16]);
    if (payload_len > kMaxPayloadBytes) break;
    if (start + kRecordHeaderBytes + payload_len > size) break;
    if (!IsKnownRecordKind(kind)) break;
    bool reserved_clear = LoadU64(header + 24) == 0;
    for (int i = 17; i < 24 && reserved_clear; ++i) {
      reserved_clear = header[i] == 0;
    }
    if (!reserved_clear) break;
    if (Crc32(header + 4, kRecordHeaderBytes - 4 + payload_len) != stored_crc) {
      break;
    }
    records.push_back(RecordView{static_cast<RecordKind>(kind), key,
                                 header + kRecordHeaderBytes, payload_len});
    offset = start + kRecordHeaderBytes + payload_len;
  }
  // The writer pads every record to the alignment boundary, so a clean file
  // ends with up to 15 zero bytes past the last payload. Accept exactly that
  // (zero padding, fully present); anything else past the last record is a
  // torn tail.
  std::uint64_t valid = offset;
  const std::uint64_t padded = AlignRecordOffset(offset);
  if (padded != offset && padded <= size) {
    bool zeros = true;
    for (std::uint64_t i = offset; i < padded && zeros; ++i) {
      zeros = data[i] == 0;
    }
    if (zeros) valid = padded;
  }

  if (valid < size) {
    // Torn tail: drop it so the file equals exactly what it proves.
    if (::ftruncate(fd, static_cast<off_t>(valid)) != 0) {
      ::munmap(map, size);
      const Status status = Errno("ftruncate", segment->path_);
      ::close(fd);
      return status;
    }
    segment->torn_bytes_ = size - valid;
  }
  ::close(fd);  // the mapping outlives the descriptor

  segment->map_ = data;
  segment->map_size_ = size;  // munmap needs the original length
  segment->valid_bytes_ = valid;
  segment->records_ = std::move(records);
  return segment;
}

MappedSegment::~MappedSegment() {
  if (map_ != nullptr) {
    ::munmap(const_cast<char*>(map_), map_size_);
  }
}

StatusOr<std::unique_ptr<SegmentWriter>> SegmentWriter::Create(std::string path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                        0644);
  if (fd < 0) return Errno("create", path);
  std::string header;
  PutU32(header, kSegmentMagic);
  PutU32(header, kFormatVersion);
  PutU64(header, 0);
  if (::write(fd, header.data(), header.size()) !=
      static_cast<ssize_t>(header.size())) {
    const Status status = Errno("write header", path);
    ::close(fd);
    return status;
  }
  return std::unique_ptr<SegmentWriter>(
      new SegmentWriter(std::move(path), fd));
}

SegmentWriter::~SegmentWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status SegmentWriter::Append(RecordKind kind, std::uint64_t key,
                             std::string_view payload) {
  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size() + kRecordAlign);
  AppendRecord(record, kind, key, payload);
  const char* p = record.data();
  std::size_t remaining = record.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, p, remaining);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Errno("append to", path_);
    }
    p += n;
    remaining -= static_cast<std::size_t>(n);
  }
  bytes_ += record.size();
  return Status::Ok();
}

Status SegmentWriter::Sync() {
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  return Status::Ok();
}

}  // namespace ppref::store
