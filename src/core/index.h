#ifndef S3VCD_CORE_INDEX_H_
#define S3VCD_CORE_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/filter.h"
#include "core/record.h"
#include "core/searcher.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

/// The S3 search engine: a Hilbert-ordered fingerprint database plus the
/// statistical / geometric filtering rules and the refinement scan
/// (paper Section IV). The "s3" backend of store::MakeSearcher; its
/// statistical and range queries are the default Searcher ones, over
/// selection_filter() and ScanSelection.
///
/// Curve sections resolve to record ranges through an index table of the
/// record offsets of the 2^t aligned key prefixes of depth
/// t = clamp(ceil(log2 N), 1, D): about one record per bucket. A section
/// boundary aligned at depth <= t (every selection at a serving depth
/// <= log2 N) is one table read; a deeper one is a binary search inside
/// its own bucket.
class S3Index : public Searcher {
 public:
  explicit S3Index(FingerprintDatabase database);

  // Move operations re-seat the filter on the moved database: BlockFilter
  // holds a pointer to the curve living inside db_.
  S3Index(S3Index&& other) noexcept
      : db_(std::move(other.db_)),
        filter_(db_.curve()),
        table_depth_(other.table_depth_),
        table_(std::move(other.table_)) {}
  S3Index& operator=(S3Index&& other) noexcept {
    db_ = std::move(other.db_);
    filter_ = BlockFilter(db_.curve());
    table_depth_ = other.table_depth_;
    table_ = std::move(other.table_);
    return *this;
  }

  const FingerprintDatabase& database() const { return db_; }
  const BlockFilter& filter() const { return filter_; }
  /// Depth t of the index table (see the class comment).
  int table_depth() const { return table_depth_; }

  /// Baseline: core::SequentialScan of this index's database.
  QueryResult SequentialScan(const fp::Fingerprint& query,
                             double epsilon) const;

  /// Resolves a key range to record indices [first, last): the first
  /// records whose keys are >= begin and >= end, with end = 0 meaning the
  /// top of the key space (the last curve section wraps).
  std::pair<size_t, size_t> ResolveRange(const BitKey& begin,
                                         const BitKey& end) const;

  // ---- Searcher interface ----
  const char* backend_name() const override { return "s3"; }
  SearcherStats Stats() const override { return {db_.size()}; }
  uint64_t ApproxBytes() const override {
    return db_.MemoryBytes() + table_.size() * sizeof(uint64_t);
  }
  const BlockFilter* selection_filter() const override { return &filter_; }
  void ScanSelection(const fp::Fingerprint& query,
                     const BlockSelection& selection, RefinementMode mode,
                     double radius, const DistortionModel* model,
                     QueryResult* result) const override;

 private:
  void BuildIndexTable();
  /// Index of the first record whose key is >= `key`.
  size_t LowerBound(const BitKey& key) const;

  FingerprintDatabase db_;
  BlockFilter filter_;
  int table_depth_ = 1;
  /// Record offsets of the 2^table_depth_ aligned prefixes (+ end sentinel).
  std::vector<uint64_t> table_;
};

/// The reference method of Section V-B: a linear scan of every record of
/// `db` with distance <= epsilon, under the `index.query.seq_scan` span.
/// Publishes one `kind` record: kSequentialScan for a range query, or
/// kStatistical where the scan answers a statistical query at the
/// equal-expectation radius (the "seqscan" backend).
QueryResult SequentialScan(const FingerprintDatabase& db,
                           const fp::Fingerprint& query, double epsilon,
                           QueryKind kind = QueryKind::kSequentialScan);

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_INDEX_H_
