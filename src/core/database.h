#ifndef S3VCD_CORE_DATABASE_H_
#define S3VCD_CORE_DATABASE_H_

#include <string>
#include <vector>

#include "core/descriptor_block.h"
#include "core/record.h"
#include "fingerprint/fingerprint.h"
#include "hilbert/hilbert_curve.h"
#include "util/bitkey.h"
#include "util/io.h"
#include "util/status.h"

namespace s3vcd::core {

namespace internal {

/// On-disk record size: descriptor + id + time code + x + y.
inline constexpr size_t kRecordBytes = fp::kDims + 16;
/// Database file header: magic, version, dims, order (u32 each) + count
/// (u64) = 24 bytes before the record payload.
inline constexpr uint64_t kHeaderBytes = 24;

void SerializeRecord(const FingerprintRecord& r, uint8_t* out);
void DeserializeRecord(const uint8_t* in, FingerprintRecord* r);

struct FileHeader {
  uint32_t dims = 0;
  uint32_t order = 0;
  uint64_t count = 0;
};

/// Reads and validates the header of a database file, leaving the reader
/// positioned at the first record.
Result<FileHeader> ReadHeader(BinaryReader* reader);

}  // namespace internal

/// The static fingerprint store of the S3 system: records physically
/// ordered by their position on the Hilbert curve (paper Section IV). The
/// structure is immutable once built — the paper's design explicitly trades
/// dynamic insertion for a compact, cache-friendly sorted layout.
class FingerprintDatabase {
 public:
  /// Default curve order (bits per component): fingerprint bytes are grid
  /// coordinates directly.
  static constexpr int kDefaultOrder = 8;

  /// An empty database with the given curve order in [1, 8].
  explicit FingerprintDatabase(int order = kDefaultOrder);

  FingerprintDatabase(FingerprintDatabase&&) = default;
  FingerprintDatabase& operator=(FingerprintDatabase&&) = default;
  FingerprintDatabase(const FingerprintDatabase&) = delete;
  FingerprintDatabase& operator=(const FingerprintDatabase&) = delete;

  const hilbert::HilbertCurve& curve() const { return curve_; }
  int order() const { return curve_.order(); }
  size_t size() const { return block_.size(); }
  bool empty() const { return block_.empty(); }

  /// Record i materialized in array-of-structs form. Scans should use
  /// block() instead of looping over this.
  FingerprintRecord record(size_t i) const { return block_.Record(i); }
  /// The structure-of-arrays record store (what ScanRecords consumes).
  const DescriptorBlock& block() const { return block_; }
  const BitKey& key(size_t i) const { return keys_[i]; }
  /// The key column, parallel to block() (core::CurveKey of each record).
  const std::vector<BitKey>& keys() const { return keys_; }

  /// Approximate in-memory footprint in bytes (records + keys).
  uint64_t MemoryBytes() const;

  /// Serializes to a single file (header, sorted records, CRC).
  Status SaveToFile(const std::string& path) const;
  static Result<FingerprintDatabase> LoadFromFile(const std::string& path);

 private:
  friend class DatabaseBuilder;

  hilbert::HilbertCurve curve_;
  DescriptorBlock block_;     // sorted by keys_
  std::vector<BitKey> keys_;  // parallel to block_
};

/// Accumulates fingerprints, then sorts them along the Hilbert curve into a
/// FingerprintDatabase.
class DatabaseBuilder {
 public:
  explicit DatabaseBuilder(int order = FingerprintDatabase::kDefaultOrder);

  void Add(const fp::Fingerprint& fingerprint, uint32_t id,
           uint32_t time_code, float x = 0, float y = 0);

  /// Adds every local fingerprint of a video under one identifier.
  void AddVideo(uint32_t id, const std::vector<fp::LocalFingerprint>& fps);

  size_t size() const { return records_.size(); }

  /// Sorts and returns the database; the builder is left empty.
  FingerprintDatabase Build();

 private:
  int order_;
  std::vector<FingerprintRecord> records_;
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_DATABASE_H_
