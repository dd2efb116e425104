#include "core/index.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/scan_kernel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace s3vcd::core {

namespace {

// Global mirrors of QueryStats: every query adds its per-run stats into
// these registry counters, so a metrics snapshot bracketing a run carries
// exactly the values the QueryStats structs reported (tested in obs_test).
obs::Counter* const g_stat_queries =
    obs::MetricsRegistry::Global().GetCounter("index.queries.statistical");
obs::Counter* const g_range_queries =
    obs::MetricsRegistry::Global().GetCounter("index.queries.range");
obs::Counter* const g_seq_scans =
    obs::MetricsRegistry::Global().GetCounter("index.queries.seq_scan");
obs::Counter* const g_blocks_selected =
    obs::MetricsRegistry::Global().GetCounter("index.blocks_selected");
obs::Counter* const g_nodes_visited =
    obs::MetricsRegistry::Global().GetCounter("index.nodes_visited");
obs::Counter* const g_ranges_scanned =
    obs::MetricsRegistry::Global().GetCounter("index.ranges_scanned");
obs::Counter* const g_records_scanned =
    obs::MetricsRegistry::Global().GetCounter("index.records_scanned");
obs::Counter* const g_descriptor_bytes_scanned =
    obs::MetricsRegistry::Global().GetCounter(
        "index.descriptor_bytes_scanned");
obs::Counter* const g_matches =
    obs::MetricsRegistry::Global().GetCounter("index.matches");
obs::Counter* const g_refine_rejected =
    obs::MetricsRegistry::Global().GetCounter("index.refine_rejected");
obs::Counter* const g_selection_ns =
    obs::MetricsRegistry::Global().GetCounter("index.selection_ns");
obs::Counter* const g_refine_ns =
    obs::MetricsRegistry::Global().GetCounter("index.refine_ns");
obs::Counter* const g_selection_cached =
    obs::MetricsRegistry::Global().GetCounter("index.selection_cached");
obs::Histogram* const g_filter_us =
    obs::MetricsRegistry::Global().GetHistogram("index.filter_us");
obs::Histogram* const g_refine_us =
    obs::MetricsRegistry::Global().GetHistogram("index.refine_us");

}  // namespace

void RecordQueryMetrics(QueryKind kind, const QueryStats& stats,
                        uint64_t hits) {
  switch (kind) {
    case QueryKind::kStatistical:
      g_stat_queries->Increment();
      break;
    case QueryKind::kRange:
      g_range_queries->Increment();
      break;
    case QueryKind::kSequentialScan:
      g_seq_scans->Increment();
      break;
  }
  g_blocks_selected->Increment(stats.blocks_selected);
  g_nodes_visited->Increment(stats.nodes_visited);
  g_ranges_scanned->Increment(stats.ranges_scanned);
  g_records_scanned->Increment(stats.records_scanned);
  g_descriptor_bytes_scanned->Increment(stats.descriptor_bytes_scanned);
  g_matches->Increment(hits);
  g_refine_rejected->Increment(stats.records_scanned - hits);
  g_selection_ns->Increment(stats.selection_ns);
  g_refine_ns->Increment(stats.refine_ns);
  if (stats.selection_cached) {
    g_selection_cached->Increment();
  }
  g_filter_us->Record(stats.filter_seconds * 1e6);
  g_refine_us->Record(stats.refine_seconds * 1e6);
}

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

QueryResult S3Index::StatisticalQuery(const fp::Fingerprint& query,
                                      const DistortionModel& model,
                                      const QueryOptions& options) const {
  S3VCD_TRACE_SPAN("index.query.statistical");
  QueryResult result;
  Stopwatch watch;
  BlockSelection selection;
  {
    S3VCD_TRACE_SPAN("index.filter");
    selection = filter_.SelectStatistical(query, model, options.filter,
                                          &ThreadLocalSelectionScratch());
  }
  result.stats.selection_ns = watch.ElapsedNanos();
  result.stats.filter_seconds = result.stats.selection_ns * 1e-9;
  result.stats.blocks_selected = selection.num_blocks;
  result.stats.nodes_visited = selection.nodes_visited;
  result.stats.probability_mass = selection.probability_mass;

  watch.Reset();
  {
    S3VCD_TRACE_SPAN("index.refine");
    ScanSelection(query, selection, options.refinement, options.radius,
                  &model, &result);
  }
  result.stats.refine_ns = watch.ElapsedNanos();
  result.stats.refine_seconds = result.stats.refine_ns * 1e-9;
  RecordQueryMetrics(QueryKind::kStatistical, result.stats,
                     result.matches.size());
  return result;
}

QueryResult S3Index::RangeQuery(const fp::Fingerprint& query, double epsilon,
                                int depth) const {
  S3VCD_TRACE_SPAN("index.query.range");
  QueryResult result;
  Stopwatch watch;
  BlockSelection selection;
  {
    S3VCD_TRACE_SPAN("index.filter");
    selection = filter_.SelectRange(query, epsilon, depth);
  }
  result.stats.selection_ns = watch.ElapsedNanos();
  result.stats.filter_seconds = result.stats.selection_ns * 1e-9;
  result.stats.blocks_selected = selection.num_blocks;
  result.stats.nodes_visited = selection.nodes_visited;

  watch.Reset();
  {
    S3VCD_TRACE_SPAN("index.refine");
    ScanSelection(query, selection, RefinementMode::kRadiusFilter, epsilon,
                  nullptr, &result);
  }
  result.stats.refine_ns = watch.ElapsedNanos();
  result.stats.refine_seconds = result.stats.refine_ns * 1e-9;
  RecordQueryMetrics(QueryKind::kRange, result.stats, result.matches.size());
  return result;
}

QueryResult S3Index::SequentialScan(const fp::Fingerprint& query,
                                    double epsilon) const {
  S3VCD_TRACE_SPAN("index.query.seq_scan");
  QueryResult result;
  Stopwatch watch;
  const RefineSpec spec(RefinementMode::kRadiusFilter, epsilon, nullptr);
  ScanRecords(query, db_.block(), 0, db_.size(), spec, &result);
  result.stats.refine_ns = watch.ElapsedNanos();
  result.stats.refine_seconds = result.stats.refine_ns * 1e-9;
  RecordQueryMetrics(QueryKind::kSequentialScan, result.stats,
                     result.matches.size());
  return result;
}

}  // namespace s3vcd::core
