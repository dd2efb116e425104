#ifndef S3VCD_CORE_DATABASE_H_
#define S3VCD_CORE_DATABASE_H_

#include <string>
#include <vector>

#include "core/descriptor_block.h"
#include "core/record.h"
#include "fingerprint/fingerprint.h"
#include "util/io.h"
#include "util/status.h"

namespace s3vcd::core {

namespace internal {

/// On-disk record size: descriptor + id + time code + x + y.
inline constexpr size_t kRecordBytes = fp::kDims + 16;
/// Database file header: magic, version, dims (u32 each) + count (u64) =
/// 20 bytes before the record payload.
inline constexpr uint64_t kHeaderBytes = 20;

void SerializeRecord(const FingerprintRecord& r, uint8_t* out);
void DeserializeRecord(const uint8_t* in, FingerprintRecord* r);

/// Writes the header of a database file of `count` records.
Status WriteHeader(BinaryWriter* writer, uint64_t count);

/// Reads and validates the header of a database file, leaving the reader
/// positioned at the first record; returns the record count.
Result<uint64_t> ReadHeader(BinaryReader* reader);

}  // namespace internal

/// The static fingerprint store of the S3 system: records physically
/// ordered by their position on the Hilbert curve (paper Section IV), that
/// is by orthant code (core/sorted_run.h), in arrival order within a code.
/// The structure is immutable once built — the paper's design explicitly
/// trades dynamic insertion for a compact, cache-friendly sorted layout.
class FingerprintDatabase {
 public:
  /// An empty database.
  FingerprintDatabase() = default;

  FingerprintDatabase(FingerprintDatabase&&) = default;
  FingerprintDatabase& operator=(FingerprintDatabase&&) = default;
  FingerprintDatabase(const FingerprintDatabase&) = delete;
  FingerprintDatabase& operator=(const FingerprintDatabase&) = delete;

  size_t size() const { return block_.size(); }
  bool empty() const { return block_.empty(); }

  /// Record i materialized in array-of-structs form. Scans should use
  /// block() instead of looping over this.
  FingerprintRecord record(size_t i) const { return block_.Record(i); }
  /// The structure-of-arrays record store (what ScanRecords consumes).
  const DescriptorBlock& block() const { return block_; }
  /// The code column, parallel to block() (core::OrthantCode of each
  /// record).
  const std::vector<uint32_t>& codes() const { return codes_; }

  /// Approximate in-memory footprint in bytes (records + codes).
  uint64_t MemoryBytes() const;

  /// Serializes to a single file (header, sorted records, CRC).
  Status SaveToFile(const std::string& path) const;
  static Result<FingerprintDatabase> LoadFromFile(const std::string& path);

 private:
  friend class DatabaseBuilder;

  DescriptorBlock block_;        // sorted by codes_
  std::vector<uint32_t> codes_;  // parallel to block_
};

/// Accumulates fingerprints, then sorts them along the Hilbert curve into a
/// FingerprintDatabase.
class DatabaseBuilder {
 public:
  void Add(const fp::Fingerprint& fingerprint, uint32_t id,
           uint32_t time_code, float x = 0, float y = 0);

  /// Adds every local fingerprint of a video under one identifier.
  void AddVideo(uint32_t id, const std::vector<fp::LocalFingerprint>& fps);

  size_t size() const { return records_.size(); }

  /// Sorts by code, in arrival order within a code, and returns the
  /// database; the builder is left empty.
  FingerprintDatabase Build();

 private:
  std::vector<FingerprintRecord> records_;
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_DATABASE_H_
