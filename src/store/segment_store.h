#ifndef S3VCD_STORE_SEGMENT_STORE_H_
#define S3VCD_STORE_SEGMENT_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/descriptor_block.h"
#include "store/segment_format.h"
#include "util/status.h"

namespace s3vcd::store {

/// Tuning of a SegmentStore (see docs/tuning.md, segment-store table).
struct SegmentStoreOptions {
  /// Segments per size tier that trigger a merge of that tier (the LSM
  /// fan-in). Minimum 2.
  int tier_fanin = 4;
  /// Record count that anchors tier 0: a segment of <= this many records
  /// is tier 0, fanin times more is tier 1, and so on. SegmentSearcher
  /// passes its spill threshold here so freshly spilled memtables land in
  /// tier 0.
  uint64_t tier_base_records = 64 * 1024;
  /// Serve segments from shared read-only mappings (fall back to resident
  /// reads when mapping fails).
  bool use_mmap = true;
  /// fsync segment files and manifests before installing them. Turning
  /// this off trades crash durability for ingest speed (tests).
  bool sync_writes = true;
};

/// A durable, crash-consistent collection of immutable segments under one
/// directory, with LSM-style size-tiered compaction. On-disk state:
///
///   seg-<id>.s3seg       immutable segments (SegmentReader format)
///   MANIFEST-<gen>       the segment list of generation <gen>
///   CURRENT              text file naming the live manifest
///
/// Every mutation (append, compaction) builds the *complete* next
/// generation on disk — new segment files first, then a new manifest,
/// fsynced — and only then swaps CURRENT via atomic rename. Readers hold a
/// shared_ptr<const View> snapshot, so an in-flight query keeps its
/// generation alive while the store moves on; a crash at any point leaves
/// the previous CURRENT intact (verified by the crash-safety test in
/// tests/store_test.cc). Lifecycle diagram: docs/segment_format.md.
///
/// Concurrency: view() is safe from any thread; AppendSegment/Compact are
/// single-writer (internally serialized, but callers must not assume
/// concurrent appends make progress in a defined order).
class SegmentStore {
 public:
  /// An immutable snapshot of one generation.
  struct View {
    uint64_t generation = 0;
    std::vector<std::shared_ptr<SegmentReader>> segments;
    uint64_t total_records = 0;
  };

  /// Opens (or creates) the store in `dir`. Stale temporaries and
  /// unreferenced segment files (e.g. from a crash mid-compaction) are
  /// removed.
  static Result<std::unique_ptr<SegmentStore>> Open(
      const std::string& dir, const SegmentStoreOptions& options = {});

  const std::string& dir() const { return dir_; }
  const SegmentStoreOptions& options() const { return options_; }

  /// The current generation's snapshot (lock-free after the shared_ptr
  /// copy; never null, possibly empty).
  std::shared_ptr<const View> view() const;

  uint64_t generation() const { return view()->generation; }
  size_t num_segments() const { return view()->segments.size(); }
  uint64_t total_records() const { return view()->total_records; }
  /// Total bytes of the current generation's segment files.
  uint64_t DiskBytes() const;

  /// Writes `block` (code-sorted, with `codes` parallel) as one new
  /// segment and installs it under a new generation. Empty blocks are a
  /// no-op.
  Status AppendSegment(const core::DescriptorBlock& block,
                       const std::vector<uint32_t>& codes);

  /// One round of size-tiered compaction: if any tier holds >= tier_fanin
  /// segments, k-way merges the smallest qualifying group into one segment
  /// and installs the new generation. Code ties go to the segment listed
  /// first in the manifest. Sets *merged (optional) to whether a merge
  /// happened.
  Status Compact(bool* merged = nullptr);

  /// Runs Compact until no tier qualifies.
  Status CompactAll();

  /// Test hook for the crash-safety test: the next compaction does all of
  /// its work (merged segment written, renamed into place) but returns
  /// kInternal *instead of* swapping the manifest — the moment a crash
  /// would be most tempted to tear the store.
  void set_fail_before_manifest_swap_for_test(bool fail) {
    fail_before_manifest_swap_ = fail;
  }

 private:
  SegmentStore(std::string dir, SegmentStoreOptions options);

  Status Load();
  /// Writes MANIFEST-<generation> for `segments` and swaps CURRENT to it.
  Status CommitGeneration(
      uint64_t generation,
      const std::vector<std::shared_ptr<SegmentReader>>& segments);
  Status WriteCurrent(const std::string& manifest_name);
  std::string SegmentPath(uint64_t id) const;
  std::string SegmentName(uint64_t id) const;
  /// Removes files in dir_ that the live generation does not reference.
  void RemoveUnreferenced();

  const std::string dir_;
  const SegmentStoreOptions options_;

  /// Serializes mutations (append/compact). Held for the full operation.
  std::mutex writer_mu_;
  /// Guards only the view_ pointer swap/copy, so readers never wait on a
  /// running compaction.
  mutable std::mutex view_mu_;
  std::shared_ptr<const View> view_;
  uint64_t next_segment_id_ = 1;
  bool fail_before_manifest_swap_ = false;
};

}  // namespace s3vcd::store

#endif  // S3VCD_STORE_SEGMENT_STORE_H_
