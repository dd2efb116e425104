#ifndef S3VCD_STORE_SEGMENT_SEARCHER_H_
#define S3VCD_STORE_SEGMENT_SEARCHER_H_

#include <memory>
#include <string>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/filter.h"
#include "core/searcher.h"
#include "store/memtable.h"
#include "store/segment_store.h"

namespace s3vcd::store {

struct SegmentSearcherOptions {
  /// Store directory. Empty means a fresh private directory under the
  /// system temp dir, removed when the searcher is destroyed (ephemeral
  /// mode — used when the backend is selected without --store-dir).
  std::string store_dir;
  /// Memtable records that trigger a spill into a new segment.
  size_t spill_threshold = 64 * 1024;
  /// Store tuning (fan-in, mmap, sync). tier_base_records is
  /// overwritten with spill_threshold so fresh spills land in tier 0.
  SegmentStoreOptions store;
};

/// The "segment" backend of MakeSearcher, and the only backend that
/// accepts inserts. Queries (the default core::Searcher ones) select code
/// ranges once through the BlockFilter, then ScanSelection refines each
/// range over every code-sorted source: the on-disk segments (the SoA scan
/// kernels run directly on the mapped columns — SegmentReader hands
/// ScanRecords a DescriptorView into the mapping), then the memtable's
/// runs. Every source is a core::SortedRun, and core::ScanSortedRuns prunes
/// and resolves each range in each of them
/// exactly as S3Index does in its one run, so a buffered record is found
/// the way a stored one is and results are identical to an in-memory S3
/// index over the same records (tests/segment_parity_test.cc pins bit-identical
/// parity, including across a close/reopen cycle).
///
/// Inserts append to the memtable and spill into immutable segments at
/// spill_threshold; Compact() spills whatever is buffered and runs the
/// store's tiered compaction to completion. Reopening the same store_dir
/// resumes from the manifest in milliseconds — nothing is re-ingested.
///
/// Single-writer: queries are const and may fan out; TryInsert/Compact
/// require external exclusion. `segment` is the only backend that takes
/// inserts, so they are methods of this class, not of core::Searcher:
/// writers hold a SegmentSearcher.
class SegmentSearcher : public core::Searcher {
 public:
  /// Opens (or creates) the store and ingests `db` as the first segment
  /// when the store is empty. A non-empty store is authoritative: `db`
  /// must then be empty (kFailedPrecondition otherwise) — reopen with an
  /// empty database, the segments already hold the records.
  static Result<std::unique_ptr<SegmentSearcher>> Open(
      core::FingerprintDatabase db, const SegmentSearcherOptions& options);

  ~SegmentSearcher() override;

  const SegmentStore& segment_store() const { return *store_; }
  /// Directory the store lives in (the private temp dir in ephemeral
  /// mode). Distinct across concurrently opened ephemeral searchers —
  /// pinned by tests/store_test.cc.
  const std::string& store_dir() const { return store_->dir(); }
  /// Records buffered in the memtable, not yet spilled to a segment.
  size_t pending_inserts() const { return memtable_.size(); }

  /// Buffers one new record, visible to queries immediately; spills the
  /// memtable into a segment at spill_threshold. Always returns true.
  bool TryInsert(const fp::Fingerprint& fingerprint, uint32_t id,
                 uint32_t time_code, float x = 0, float y = 0);
  /// Spills the memtable and compacts the store to a steady state.
  void Compact();

  // ---- Searcher interface ----
  const char* backend_name() const override { return "segment"; }
  core::SearcherStats Stats() const override;
  uint64_t ApproxBytes() const override;
  const core::BlockFilter* selection_filter() const override {
    return &filter_;
  }
  void ScanSelection(const fp::Fingerprint& query,
                     const core::BlockSelection& selection,
                     core::RefinementMode mode, double radius,
                     const core::DistortionModel* model,
                     core::QueryResult* result) const override;

 private:
  SegmentSearcher(std::unique_ptr<SegmentStore> store, bool owns_dir);

  /// Writes the memtable out as one segment (no-op when empty).
  Status Spill();

  std::unique_ptr<SegmentStore> store_;
  /// True when the searcher created a private temp store dir and must
  /// remove it on destruction.
  bool owns_dir_;
  core::BlockFilter filter_;
  /// LSM write buffer: recent inserts as code-sorted runs.
  Memtable memtable_;
  size_t spill_threshold_;
};

}  // namespace s3vcd::store

#endif  // S3VCD_STORE_SEGMENT_SEARCHER_H_
