#include "core/database.h"

#include <algorithm>
#include <cstring>

#include "core/sorted_run.h"
#include "util/io.h"
#include "util/logging.h"

namespace s3vcd::core {

namespace {

constexpr uint32_t kMagic = 0x53334442;  // "S3DB"
// Version 2 dropped the curve order field (version 1 files are refused).
constexpr uint32_t kVersion = 2;

}  // namespace

namespace internal {

void SerializeRecord(const FingerprintRecord& r, uint8_t* out) {
  std::memcpy(out, r.descriptor.data(), fp::kDims);
  std::memcpy(out + fp::kDims, &r.id, 4);
  std::memcpy(out + fp::kDims + 4, &r.time_code, 4);
  std::memcpy(out + fp::kDims + 8, &r.x, 4);
  std::memcpy(out + fp::kDims + 12, &r.y, 4);
}

void DeserializeRecord(const uint8_t* in, FingerprintRecord* r) {
  std::memcpy(r->descriptor.data(), in, fp::kDims);
  std::memcpy(&r->id, in + fp::kDims, 4);
  std::memcpy(&r->time_code, in + fp::kDims + 4, 4);
  std::memcpy(&r->x, in + fp::kDims + 8, 4);
  std::memcpy(&r->y, in + fp::kDims + 12, 4);
}

Status WriteHeader(BinaryWriter* writer, uint64_t count) {
  S3VCD_RETURN_IF_ERROR(writer->WriteU32(kMagic));
  S3VCD_RETURN_IF_ERROR(writer->WriteU32(kVersion));
  S3VCD_RETURN_IF_ERROR(writer->WriteU32(static_cast<uint32_t>(fp::kDims)));
  return writer->WriteU64(count);
}

Result<uint64_t> ReadHeader(BinaryReader* reader) {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t dims = 0;
  uint64_t count = 0;
  S3VCD_ASSIGN_OR_RETURN(const uint64_t size, reader->Size());
  if (size < kHeaderBytes + 4) {
    return Status::Corruption("database file truncated");
  }
  S3VCD_RETURN_IF_ERROR(reader->ReadU32(&magic));
  if (magic != kMagic) {
    return Status::Corruption("not a fingerprint database file");
  }
  S3VCD_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version != kVersion) {
    return Status::Corruption("unsupported database version " +
                              std::to_string(version));
  }
  S3VCD_RETURN_IF_ERROR(reader->ReadU32(&dims));
  if (dims != static_cast<uint32_t>(fp::kDims)) {
    return Status::Corruption("database dimensionality mismatch");
  }
  S3VCD_RETURN_IF_ERROR(reader->ReadU64(&count));
  // The payload is exactly count records and the CRC.
  if (count > (size - kHeaderBytes - 4) / kRecordBytes ||
      size != kHeaderBytes + count * kRecordBytes + 4) {
    return Status::Corruption("database size disagrees with its count");
  }
  return count;
}

}  // namespace internal

using internal::DeserializeRecord;
using internal::kRecordBytes;
using internal::SerializeRecord;

uint64_t FingerprintDatabase::MemoryBytes() const {
  return block_.MemoryBytes() + codes_.size() * sizeof(uint32_t);
}

Status FingerprintDatabase::SaveToFile(const std::string& path) const {
  BinaryWriter writer;
  S3VCD_RETURN_IF_ERROR(writer.Open(path));
  S3VCD_RETURN_IF_ERROR(internal::WriteHeader(&writer, block_.size()));
  uint8_t buf[kRecordBytes];
  for (size_t i = 0; i < block_.size(); ++i) {
    SerializeRecord(block_.Record(i), buf);
    S3VCD_RETURN_IF_ERROR(writer.WriteBytes(buf, kRecordBytes));
  }
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(writer.crc()));
  return writer.Close();
}

Result<FingerprintDatabase> FingerprintDatabase::LoadFromFile(
    const std::string& path) {
  BinaryReader reader;
  S3VCD_RETURN_IF_ERROR(reader.Open(path));
  S3VCD_ASSIGN_OR_RETURN(const uint64_t count, internal::ReadHeader(&reader));
  FingerprintDatabase db;
  db.block_.Reserve(count);
  db.codes_.reserve(count);
  uint8_t buf[kRecordBytes];
  FingerprintRecord record;
  for (uint64_t i = 0; i < count; ++i) {
    S3VCD_RETURN_IF_ERROR(reader.ReadBytes(buf, kRecordBytes));
    DeserializeRecord(buf, &record);
    db.block_.AppendRecord(record);
    // Recompute the code; the sort order is verified below.
    db.codes_.push_back(OrthantCode(record.descriptor));
  }
  const uint32_t computed_crc = reader.crc();
  uint32_t stored_crc = 0;
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&stored_crc));
  if (stored_crc != computed_crc) {
    return Status::Corruption("database checksum mismatch");
  }
  S3VCD_RETURN_IF_ERROR(reader.Close());
  if (!std::is_sorted(db.codes_.begin(), db.codes_.end())) {
    return Status::Corruption("database records are not curve-ordered");
  }
  return db;
}

void DatabaseBuilder::Add(const fp::Fingerprint& fingerprint, uint32_t id,
                          uint32_t time_code, float x, float y) {
  records_.push_back({fingerprint, id, time_code, x, y});
}

void DatabaseBuilder::AddVideo(uint32_t id,
                               const std::vector<fp::LocalFingerprint>& fps) {
  records_.reserve(records_.size() + fps.size());
  for (const fp::LocalFingerprint& lf : fps) {
    Add(lf.descriptor, id, lf.time_code, lf.x, lf.y);
  }
}

FingerprintDatabase DatabaseBuilder::Build() {
  const size_t n = records_.size();
  S3VCD_CHECK(n <= UINT32_MAX);
  // Sorting (code, arrival index) pairs keeps arrival order within a code.
  std::vector<uint64_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = uint64_t{OrthantCode(records_[i].descriptor)} << 32 | i;
  }
  std::sort(order.begin(), order.end());
  FingerprintDatabase db;
  db.block_.Reserve(n);
  db.codes_.reserve(n);
  for (const uint64_t entry : order) {
    db.block_.AppendRecord(records_[static_cast<uint32_t>(entry)]);
    db.codes_.push_back(static_cast<uint32_t>(entry >> 32));
  }
  records_.clear();
  return db;
}

}  // namespace s3vcd::core
