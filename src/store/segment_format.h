#ifndef S3VCD_STORE_SEGMENT_FORMAT_H_
#define S3VCD_STORE_SEGMENT_FORMAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/descriptor_block.h"
#include "core/record.h"
#include "core/sorted_run.h"
#include "fingerprint/fingerprint.h"
#include "util/status.h"

namespace s3vcd::store {

/// The immutable on-disk segment format (`.s3seg`): one Hilbert-sorted
/// run of fingerprint records stored *columnar*, so the refinement kernels
/// (core/scan_kernel) run directly over the mapped arrays through a
/// core::DescriptorView — no deserialization on the query path. Byte-level
/// spec: docs/segment_format.md. The `.s3db` single-file format
/// (docs/file_format.md) remains the interchange format; segments are the
/// serving format written and compacted by SegmentStore.
///
/// Layout summary (every section 64-byte aligned, lengths in the footer):
///   [0, 64)    header: magic, version, dims, codec tag (always 0), count,
///              segment id, CRC
///   sections   orthant codes (4 B/rec) | descriptors (20 B/rec) | ids |
///              times | xs | ys | codec params (always empty)
///   [end-196, end)  footer: section table with per-section CRCs, min/max
///                   code, footer offset, footer CRC, trailing magic
inline constexpr uint32_t kSegmentMagic = 0x53335347;  // "S3SG"
/// Version 3 replaced the 32-byte curve keys with 4-byte orthant codes and
/// dropped the curve order; version 2 added the descriptor codec tag and
/// the codec-params section, which now only ever hold 0 and nothing. Older
/// versions are rejected.
inline constexpr uint32_t kSegmentVersion = 3;
/// Alignment of every section start (and of the header block), so mapped
/// column pointers satisfy the alignment of their element types.
inline constexpr size_t kSectionAlign = 64;
inline constexpr size_t kSegmentHeaderBytes = 64;
/// codes, descriptors, ids, time_codes, xs, ys, codec params — in file
/// order.
inline constexpr uint32_t kNumSections = 7;
// The reader maps the columns as their little-endian types.
static_assert(std::endian::native == std::endian::little);
/// Header field offsets (byte-level spec: docs/segment_format.md). The
/// codec tag sits inside the CRC-covered prefix, so flipping it without
/// resealing the header is caught as a checksum mismatch; a resealed flip
/// is refused because every tag but 0 (exact bytes) is unknown — tags 1
/// and 2 named the retired 8-bit and lvq4 codecs.
inline constexpr size_t kHeaderCodecOff = 12;
inline constexpr size_t kHeaderCountOff = 16;
inline constexpr size_t kHeaderCrcOff = 32;
/// Footer field offsets, all derived from the section count.
inline constexpr size_t kFooterMinCodeOff = 4 + kNumSections * 24;
inline constexpr size_t kFooterMaxCodeOff = kFooterMinCodeOff + 4;
inline constexpr size_t kFooterOffsetOff = kFooterMaxCodeOff + 4;
inline constexpr size_t kFooterCrcOff = kFooterOffsetOff + 8;
inline constexpr size_t kFooterMagicOff = kFooterCrcOff + 4;
/// section_count u32 + 7 * {offset u64, length u64, crc u32, reserved u32}
/// + min_code u32 + max_code u32 + footer_offset u64 + footer_crc u32 +
/// magic u32.
inline constexpr size_t kSegmentFooterBytes = kFooterMagicOff + 4;

struct SegmentWriteOptions {
  /// fsync the segment file before returning (the caller still owns
  /// durability of the *name* via rename + directory sync).
  bool sync = true;
};

/// Writes one complete segment file at `path` from a sorted record block
/// and its parallel code array (codes[i] = core::OrthantCode of block
/// record i, non-decreasing). Fails with kInvalidArgument on unsorted codes
/// or a size mismatch; any error leaves no file behind.
Status WriteSegmentFile(const std::string& path, uint64_t segment_id,
                        const core::DescriptorBlock& block,
                        const std::vector<uint32_t>& codes,
                        const SegmentWriteOptions& options = {});

struct SegmentReadOptions {
  /// Map the file (shared, read-only) instead of reading it resident.
  /// When mapping fails (e.g. filesystem without mmap) Open falls back to
  /// a resident read.
  bool use_mmap = true;
};

/// A validated, immutable, opened segment. All accessors are const and
/// thread-safe; the object owns the mapping (or the resident copy) and
/// releases it on destruction. Open() performs the full corruption screen
/// of docs/segment_format.md — any structural violation, CRC mismatch,
/// code-order violation or code that is not the OrthantCode of its
/// descriptor returns kCorruption and constructs nothing, so a reader
/// either sees the entire segment or none of it.
class SegmentReader {
 public:
  static Result<std::shared_ptr<SegmentReader>> Open(
      const std::string& path, const SegmentReadOptions& options = {});

  ~SegmentReader();
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  const std::string& path() const { return path_; }
  uint64_t segment_id() const { return segment_id_; }
  /// Record count.
  uint64_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  uint64_t file_bytes() const { return file_bytes_; }
  /// Whether the columns are served from a shared file mapping (true) or
  /// from a resident copy (false).
  bool mapped() const { return map_base_ != nullptr; }
  /// Bytes of process-resident copy (0 when mapped).
  uint64_t resident_bytes() const { return mapped() ? 0 : resident_.size(); }

  /// The code column, mapped as u32.
  const uint32_t* codes() const { return codes_; }
  /// The segment as a sorted run; Open's code-order check builds its table.
  core::SortedRun run() const {
    return core::SortedRun(View(), codes_, &table_);
  }

  /// The SoA columns as a view the scan kernels consume directly.
  core::DescriptorView View() const {
    return {descriptors_, ids_, time_codes_, xs_, ys_,
            static_cast<size_t>(count_)};
  }

  /// Record i in array-of-structs form (merges, tools; not the scan path).
  core::FingerprintRecord Record(size_t i) const;

 private:
  SegmentReader() = default;
  Status Init(const std::string& path, const SegmentReadOptions& options);

  std::string path_;
  uint64_t segment_id_ = 0;
  uint64_t count_ = 0;
  uint64_t file_bytes_ = 0;

  /// Backing bytes: either a shared read-only mapping or a resident copy.
  void* map_base_ = nullptr;
  size_t map_len_ = 0;
  std::vector<uint8_t> resident_;

  /// Column pointers into the backing bytes (64-byte aligned in-file).
  const uint32_t* codes_ = nullptr;
  const uint8_t* descriptors_ = nullptr;
  const uint32_t* ids_ = nullptr;
  const uint32_t* time_codes_ = nullptr;
  const float* xs_ = nullptr;
  const float* ys_ = nullptr;
  core::PrefixTable table_;
};

}  // namespace s3vcd::store

#endif  // S3VCD_STORE_SEGMENT_FORMAT_H_
