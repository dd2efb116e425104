#ifndef S3VCD_CORE_INDEX_H_
#define S3VCD_CORE_INDEX_H_

#include <cstdint>
#include <utility>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/filter.h"
#include "core/record.h"
#include "core/searcher.h"
#include "core/sorted_run.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

/// The S3 search engine: a Hilbert-ordered fingerprint database plus the
/// statistical / geometric filtering rules and the refinement scan
/// (paper Section IV). The "s3" backend of store::MakeSearcher; its
/// statistical and range queries are the default Searcher ones, over
/// selection_filter() and ScanSelection.
///
/// The database is one sorted run (core/sorted_run.h) whose prefix table
/// sits at depth t = clamp(ceil(log2 N), 1, D), about one record per
/// bucket: a range bound aligned at depth <= t (every selection at a
/// serving depth <= log2 N) resolves with one table read.
class S3Index : public Searcher {
 public:
  explicit S3Index(FingerprintDatabase database);

  const FingerprintDatabase& database() const { return db_; }
  const BlockFilter& filter() const { return filter_; }
  /// The database as a sorted run, for section lookups (valid while the
  /// index lives and is not moved).
  SortedRun run() const {
    return SortedRun(db_.block().View(), db_.codes().data(), &table_);
  }

  // ---- Searcher interface ----
  const char* backend_name() const override { return "s3"; }
  SearcherStats Stats() const override { return {db_.size()}; }
  uint64_t ApproxBytes() const override {
    return db_.MemoryBytes() + table_.MemoryBytes();
  }
  const BlockFilter* selection_filter() const override { return &filter_; }
  void ScanSelection(const fp::Fingerprint& query,
                     const BlockSelection& selection, RefinementMode mode,
                     double radius, const DistortionModel* model,
                     QueryResult* result) const override;

 private:
  FingerprintDatabase db_;
  BlockFilter filter_;
  PrefixTable table_;
};

/// The reference method of Section V-B: every record of `db` within
/// epsilon of `query`, found by a linear scan, unpublished (the body of the
/// "seqscan" backend's queries).
QueryResult ScanAll(const FingerprintDatabase& db,
                    const fp::Fingerprint& query, double epsilon);

/// ScanAll as a query of its own: under the `index.query.seq_scan` span,
/// publishing one kSequentialScan record (the benches' baseline row).
QueryResult SequentialScan(const FingerprintDatabase& db,
                           const fp::Fingerprint& query, double epsilon);

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_INDEX_H_
