#ifndef S3VCD_STORE_SEGMENT_FORMAT_H_
#define S3VCD_STORE_SEGMENT_FORMAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/descriptor_block.h"
#include "core/descriptor_codec.h"
#include "core/record.h"
#include "core/sorted_run.h"
#include "fingerprint/fingerprint.h"
#include "util/bitkey.h"
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
///   [0, 64)    header: magic, version, dims, order, count, segment id,
///              descriptor codec tag, CRC
///   sections   keys (32 B/rec) | coded descriptors (codec code bytes/rec)
///              | ids | times | xs | ys | codec params (0 B exact, 96 B
///              quantized)
///   [end-252, end)  footer: section table with per-section CRCs, min/max
///                   key, footer offset, footer CRC, trailing magic
inline constexpr uint32_t kSegmentMagic = 0x53335347;  // "S3SG"
/// Version 2 added the descriptor codec tag and the codec-params section
/// (version 1 files, which predate pluggable codecs, are rejected).
inline constexpr uint32_t kSegmentVersion = 2;
/// Alignment of every section start (and of the header block), so mapped
/// column pointers satisfy the alignment of their element types.
inline constexpr size_t kSectionAlign = 64;
inline constexpr size_t kSegmentHeaderBytes = 64;
/// keys, descriptors, ids, time_codes, xs, ys, codec params — in file
/// order.
inline constexpr uint32_t kNumSections = 7;
/// Serialized BitKey: 4 little-endian u64 words, least significant first.
inline constexpr size_t kKeyBytes = 32;
// The reader maps the key column as BitKey, as it maps the u32/float
// columns as their types.
static_assert(std::endian::native == std::endian::little &&
              sizeof(BitKey) == kKeyBytes && alignof(BitKey) <= kSectionAlign);
/// Header field offsets (byte-level spec: docs/segment_format.md). The
/// codec tag sits inside the CRC-covered prefix, so flipping it without
/// resealing the header is caught as a checksum mismatch — and a resealed
/// flip still fails the descriptor/params section length checks.
inline constexpr size_t kHeaderCodecOff = 32;
inline constexpr size_t kHeaderCrcOff = 40;
/// Footer field offsets, all derived from the section count.
inline constexpr size_t kFooterMinKeyOff = 4 + kNumSections * 24;
inline constexpr size_t kFooterMaxKeyOff = kFooterMinKeyOff + kKeyBytes;
inline constexpr size_t kFooterOffsetOff = kFooterMaxKeyOff + kKeyBytes;
inline constexpr size_t kFooterCrcOff = kFooterOffsetOff + 8;
inline constexpr size_t kFooterMagicOff = kFooterCrcOff + 4;
/// section_count u32 + 7 * {offset u64, length u64, crc u32, reserved u32}
/// + min_key + max_key + footer_offset u64 + footer_crc u32 + magic u32.
inline constexpr size_t kSegmentFooterBytes = kFooterMagicOff + 4;

struct SegmentWriteOptions {
  /// fsync the segment file before returning (the caller still owns
  /// durability of the *name* via rename + directory sync).
  bool sync = true;
  /// Descriptor codec the segment is encoded with. Quantized codecs train
  /// their per-axis parameters on the block being written and store them
  /// in the codec-params section.
  core::DescriptorCodecKind codec = core::DescriptorCodecKind::kExactU8;
};

/// Writes one complete segment file at `path` from a sorted record block
/// and its parallel key array (keys[i] = Hilbert key of block record i,
/// non-decreasing). Fails with kInvalidArgument on unsorted keys or a
/// size mismatch; any error leaves no file behind.
Status WriteSegmentFile(const std::string& path, uint64_t segment_id,
                        int order, const core::DescriptorBlock& block,
                        const std::vector<BitKey>& keys,
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
/// of docs/segment_format.md — any structural violation, CRC mismatch or
/// key-order violation returns kCorruption and constructs nothing, so a
/// reader either sees the entire segment or none of it.
class SegmentReader {
 public:
  static Result<std::shared_ptr<SegmentReader>> Open(
      const std::string& path, const SegmentReadOptions& options = {});

  ~SegmentReader();
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  const std::string& path() const { return path_; }
  uint64_t segment_id() const { return segment_id_; }
  int order() const { return order_; }
  /// Record count.
  uint64_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  uint64_t file_bytes() const { return file_bytes_; }
  /// Whether the columns are served from a shared file mapping (true) or
  /// from a resident copy (false).
  bool mapped() const { return map_base_ != nullptr; }
  /// Bytes of process-resident copy (0 when mapped).
  uint64_t resident_bytes() const { return mapped() ? 0 : resident_.size(); }

  /// Descriptor codec the segment's descriptor column is encoded with
  /// (parameters deserialized from the codec-params section at open).
  const core::DescriptorCodec& codec() const { return codec_; }
  core::DescriptorCodecKind codec_kind() const { return codec_.kind; }
  /// Stored bytes per descriptor record (codec code bytes).
  size_t descriptor_code_bytes() const { return codec_.code_bytes(); }

  /// The key column, mapped as BitKey (see kKeyBytes).
  const BitKey* keys() const { return keys_; }
  /// The segment as a sorted run; Open's key-order check builds its table.
  core::SortedRun run() const { return core::SortedRun(View(), keys_, table_); }

  /// The SoA columns as a view the scan kernels consume directly. On a
  /// quantized segment the view carries the codec, which routes scans
  /// through the fused decode kernels (see core/scan_kernel.h).
  core::DescriptorView View() const {
    core::DescriptorView view{descriptors_, ids_, time_codes_, xs_, ys_,
                              static_cast<size_t>(count_)};
    view.desc_bytes = codec_.code_bytes();
    if (!codec_.is_exact()) {
      view.codec = &codec_;
    }
    return view;
  }

  /// Record i in array-of-structs form (merges, tools; not the scan path).
  /// Decoded through the codec on quantized segments.
  core::FingerprintRecord Record(size_t i) const;

 private:
  SegmentReader() = default;
  Status Init(const std::string& path, const SegmentReadOptions& options);

  std::string path_;
  uint64_t segment_id_ = 0;
  int order_ = 0;
  uint64_t count_ = 0;
  uint64_t file_bytes_ = 0;
  core::DescriptorCodec codec_;  ///< identity codec on exact segments

  /// Backing bytes: either a shared read-only mapping or a resident copy.
  void* map_base_ = nullptr;
  size_t map_len_ = 0;
  std::vector<uint8_t> resident_;

  /// Column pointers into the backing bytes (64-byte aligned in-file).
  const BitKey* keys_ = nullptr;
  const uint8_t* descriptors_ = nullptr;
  const uint32_t* ids_ = nullptr;
  const uint32_t* time_codes_ = nullptr;
  const float* xs_ = nullptr;
  const float* ys_ = nullptr;
  core::PrefixTable table_;
};

}  // namespace s3vcd::store

#endif  // S3VCD_STORE_SEGMENT_FORMAT_H_
