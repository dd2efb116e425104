#include "core/database.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "core/sorted_run.h"
#include "util/io.h"
#include "util/logging.h"

namespace s3vcd::core {

namespace {

constexpr uint32_t kMagic = 0x53334442;  // "S3DB"
constexpr uint32_t kVersion = 1;

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

Result<FileHeader> ReadHeader(BinaryReader* reader) {
  uint32_t magic = 0;
  uint32_t version = 0;
  FileHeader header;
  S3VCD_RETURN_IF_ERROR(reader->ReadU32(&magic));
  if (magic != kMagic) {
    return Status::Corruption("not a fingerprint database file");
  }
  S3VCD_RETURN_IF_ERROR(reader->ReadU32(&version));
  if (version != kVersion) {
    return Status::Corruption("unsupported database version");
  }
  S3VCD_RETURN_IF_ERROR(reader->ReadU32(&header.dims));
  if (header.dims != static_cast<uint32_t>(fp::kDims)) {
    return Status::Corruption("database dimensionality mismatch");
  }
  S3VCD_RETURN_IF_ERROR(reader->ReadU32(&header.order));
  if (header.order < 1 || header.order > 8) {
    return Status::Corruption("invalid curve order");
  }
  S3VCD_RETURN_IF_ERROR(reader->ReadU64(&header.count));
  return header;
}

}  // namespace internal

using internal::DeserializeRecord;
using internal::kRecordBytes;
using internal::SerializeRecord;

FingerprintDatabase::FingerprintDatabase(int order)
    : curve_(fp::kDims, order) {
  S3VCD_CHECK(order >= 1 && order <= 8);
}

uint64_t FingerprintDatabase::MemoryBytes() const {
  return block_.MemoryBytes() + keys_.size() * sizeof(BitKey);
}

Status FingerprintDatabase::SaveToFile(const std::string& path) const {
  BinaryWriter writer;
  S3VCD_RETURN_IF_ERROR(writer.Open(path));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(kMagic));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(kVersion));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(static_cast<uint32_t>(fp::kDims)));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(static_cast<uint32_t>(order())));
  S3VCD_RETURN_IF_ERROR(writer.WriteU64(block_.size()));
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
  S3VCD_ASSIGN_OR_RETURN(const internal::FileHeader header,
                         internal::ReadHeader(&reader));
  const uint64_t count = header.count;
  FingerprintDatabase db(static_cast<int>(header.order));
  db.block_.Reserve(count);
  db.keys_.reserve(count);
  uint8_t buf[kRecordBytes];
  FingerprintRecord record;
  for (uint64_t i = 0; i < count; ++i) {
    S3VCD_RETURN_IF_ERROR(reader.ReadBytes(buf, kRecordBytes));
    DeserializeRecord(buf, &record);
    db.block_.AppendRecord(record);
    // Recompute the key; the sort order is verified below.
    db.keys_.push_back(CurveKey(db.curve_, record.descriptor));
  }
  const uint32_t computed_crc = reader.crc();
  uint32_t stored_crc = 0;
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&stored_crc));
  if (stored_crc != computed_crc) {
    return Status::Corruption("database checksum mismatch");
  }
  S3VCD_RETURN_IF_ERROR(reader.Close());
  if (!std::is_sorted(db.keys_.begin(), db.keys_.end())) {
    return Status::Corruption("database records are not curve-ordered");
  }
  return db;
}

DatabaseBuilder::DatabaseBuilder(int order) : order_(order) {
  S3VCD_CHECK(order >= 1 && order <= 8);
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
  FingerprintDatabase db(order_);
  const size_t n = records_.size();
  std::vector<BitKey> keys;
  keys.reserve(n);
  for (const FingerprintRecord& r : records_) {
    keys.push_back(CurveKey(db.curve_, r.descriptor));
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return keys[a] < keys[b];
  });
  db.block_.Reserve(n);
  db.keys_.reserve(n);
  for (uint32_t idx : perm) {
    db.block_.AppendRecord(records_[idx]);
    db.keys_.push_back(keys[idx]);
  }
  records_.clear();
  return db;
}

}  // namespace s3vcd::core
