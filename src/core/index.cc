#include "core/index.h"

#include "core/scan_kernel.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace s3vcd::core {

S3Index::S3Index(FingerprintDatabase database)
    : db_(std::move(database)),
      table_(PrefixTable::OfRun(db_.codes().data(), db_.size())) {}

void S3Index::ScanSelection(const fp::Fingerprint& query,
                            const BlockSelection& selection,
                            RefinementMode mode, double radius,
                            const DistortionModel* model,
                            QueryResult* result) const {
  S3VCD_DCHECK(mode != RefinementMode::kNormalizedRadiusFilter ||
               model != nullptr);
  const SortedRun runs[] = {run()};
  ScanSortedRuns(query, selection, runs, RefineSpec(mode, radius, model),
                 result);
}

QueryResult ScanAll(const FingerprintDatabase& db,
                    const fp::Fingerprint& query, double epsilon) {
  QueryResult result;
  Stopwatch watch;
  const RefineSpec spec(RefinementMode::kRadiusFilter, epsilon, nullptr);
  ScanRecords(query, db.block(), 0, db.size(), spec, &result);
  result.stats.refine_ns = watch.ElapsedNanos();
  return result;
}

QueryResult SequentialScan(const FingerprintDatabase& db,
                           const fp::Fingerprint& query, double epsilon) {
  S3VCD_TRACE_SPAN("index.query.seq_scan");
  QueryResult result = ScanAll(db, query, epsilon);
  RecordQueryMetrics(QueryKind::kSequentialScan, result.stats,
                     result.matches.size());
  return result;
}

}  // namespace s3vcd::core
