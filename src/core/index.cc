#include "core/index.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/scan_kernel.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace s3vcd::core {

S3Index::S3Index(FingerprintDatabase database)
    : db_(std::move(database)), filter_(db_.curve()) {
  // ceil(log2 N), clamped to [1, D]: std::bit_width(N - 1) for N >= 2.
  const int log2_n =
      db_.size() < 2 ? 1 : static_cast<int>(std::bit_width(db_.size() - 1));
  table_depth_ = std::clamp(log2_n, 1, db_.curve().dims());
  BuildIndexTable();
}

void S3Index::BuildIndexTable() {
  const uint64_t buckets = uint64_t{1} << table_depth_;
  const int shift = db_.curve().key_bits() - table_depth_;
  table_.assign(buckets + 1, db_.size());
  // Single linear walk over the sorted keys.
  uint64_t bucket = 0;
  table_[0] = 0;
  for (size_t i = 0; i < db_.size(); ++i) {
    const uint64_t b = (db_.key(i) >> shift).low64();
    S3VCD_DCHECK(b >= bucket);
    while (bucket < b) {
      table_[++bucket] = i;
    }
  }
}

size_t S3Index::LowerBound(const BitKey& key) const {
  const int shift = db_.curve().key_bits() - table_depth_;
  const uint64_t b = (key >> shift).low64();
  const size_t first = table_[b];
  if ((key & BitKey::LowMask(shift)).is_zero()) {
    return first;  // aligned: the bucket's first record
  }
  const size_t last = table_[b + 1];
  if (first == last) {
    return first;
  }
  const BitKey* keys = &db_.key(0);
  return static_cast<size_t>(std::lower_bound(keys + first, keys + last, key) -
                             keys);
}

std::pair<size_t, size_t> S3Index::ResolveRange(const BitKey& begin,
                                                const BitKey& end) const {
  return {LowerBound(begin), end.is_zero() ? db_.size() : LowerBound(end)};
}

void S3Index::ScanSelection(const fp::Fingerprint& query,
                            const BlockSelection& selection,
                            RefinementMode mode, double radius,
                            const DistortionModel* model,
                            QueryResult* result) const {
  S3VCD_DCHECK(mode != RefinementMode::kNormalizedRadiusFilter ||
               model != nullptr);
  const RefineSpec spec(mode, radius, model);
  for (const auto& [begin, end] : selection.ranges) {
    // `end` may numerically wrap to zero for the last curve section.
    const auto [first, last] = ResolveRange(begin, end);
    ++result->stats.ranges_scanned;
    if (first < last) {
      ScanRecords(query, db_.block(), first, last, spec, result);
    }
  }
}

QueryResult S3Index::SequentialScan(const fp::Fingerprint& query,
                                    double epsilon) const {
  return core::SequentialScan(db_, query, epsilon);
}

QueryResult SequentialScan(const FingerprintDatabase& db,
                           const fp::Fingerprint& query, double epsilon,
                           QueryKind kind) {
  S3VCD_TRACE_SPAN("index.query.seq_scan");
  QueryResult result;
  Stopwatch watch;
  const RefineSpec spec(RefinementMode::kRadiusFilter, epsilon, nullptr);
  ScanRecords(query, db.block(), 0, db.size(), spec, &result);
  result.stats.refine_ns = watch.ElapsedNanos();
  RecordQueryMetrics(kind, result.stats, result.matches.size());
  return result;
}

}  // namespace s3vcd::core
