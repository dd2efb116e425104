#include "core/searcher.h"

#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/math.h"
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
obs::Counter* const g_knn_queries =
    obs::MetricsRegistry::Global().GetCounter("index.queries.knn");
obs::Counter* const g_blocks_selected =
    obs::MetricsRegistry::Global().GetCounter("index.blocks_selected");
obs::Counter* const g_nodes_visited =
    obs::MetricsRegistry::Global().GetCounter("index.nodes_visited");
obs::Counter* const g_ranges_scanned =
    obs::MetricsRegistry::Global().GetCounter("index.ranges_scanned");
obs::Counter* const g_records_scanned =
    obs::MetricsRegistry::Global().GetCounter("index.records_scanned");
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

QueryResult Published(QueryKind kind, QueryResult result) {
  RecordQueryMetrics(kind, result.stats, result.matches.size());
  return result;
}

// The block-structured query: `select` picks the blocks through the
// backend's filter, ScanSelection refines their curve sections.
template <typename Select>
QueryResult SelectAndScan(const Searcher& searcher, QueryKind kind,
                          const fp::Fingerprint& query, Select select,
                          RefinementMode mode, double radius,
                          const DistortionModel* model) {
  const BlockFilter* filter = searcher.selection_filter();
  S3VCD_CHECK(filter != nullptr);
  QueryResult result;
  Stopwatch watch;
  BlockSelection selection;
  {
    S3VCD_TRACE_SPAN("index.filter");
    selection = select(*filter);
  }
  result.stats.selection_ns = watch.ElapsedNanos();
  result.stats.blocks_selected = selection.num_blocks;
  result.stats.nodes_visited = selection.nodes_visited;
  result.stats.probability_mass = selection.probability_mass;

  watch.Reset();
  {
    S3VCD_TRACE_SPAN("index.refine");
    searcher.ScanSelection(query, selection, mode, radius, model, &result);
  }
  result.stats.refine_ns = watch.ElapsedNanos();
  return Published(kind, std::move(result));
}

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
    case QueryKind::kKnn:
      g_knn_queries->Increment();
      break;
  }
  g_blocks_selected->Increment(stats.blocks_selected);
  g_nodes_visited->Increment(stats.nodes_visited);
  g_ranges_scanned->Increment(stats.ranges_scanned);
  g_records_scanned->Increment(stats.records_scanned);
  g_matches->Increment(hits);
  g_refine_rejected->Increment(stats.records_scanned - hits);
  g_selection_ns->Increment(stats.selection_ns);
  g_refine_ns->Increment(stats.refine_ns);
  if (stats.selection_cached) {
    g_selection_cached->Increment();
  }
  g_filter_us->Record(stats.selection_ns * 1e-3);
  g_refine_us->Record(stats.refine_ns * 1e-3);
}

QueryResult Searcher::StatQuery(const fp::Fingerprint& query,
                                const DistortionModel& model,
                                const QueryOptions& options) const {
  S3VCD_TRACE_SPAN("index.query.statistical");
  if (selection_filter() == nullptr) {
    return Published(QueryKind::kStatistical,
                     BallQuery(query, EqualExpectationRadius(
                                          model, options.filter.alpha)));
  }
  return SelectAndScan(
      *this, QueryKind::kStatistical, query,
      [&](const BlockFilter& filter) {
        return filter.SelectStatistical(query, model, options.filter,
                                        &ThreadLocalSelectionScratch());
      },
      options.refinement, options.radius, &model);
}

QueryResult Searcher::RangeQuery(const fp::Fingerprint& query, double epsilon,
                                 int depth) const {
  S3VCD_TRACE_SPAN("index.query.range");
  if (selection_filter() == nullptr) {
    return Published(QueryKind::kRange, BallQuery(query, epsilon));
  }
  return SelectAndScan(
      *this, QueryKind::kRange, query,
      [&](const BlockFilter& filter) {
        return filter.SelectRange(query, epsilon, depth, 1 << 20,
                                  &ThreadLocalSelectionScratch());
      },
      RefinementMode::kRadiusFilter, epsilon, nullptr);
}

void Searcher::ScanSelection(const fp::Fingerprint& /*query*/,
                             const BlockSelection& /*selection*/,
                             RefinementMode /*mode*/, double /*radius*/,
                             const DistortionModel* /*model*/,
                             QueryResult* /*result*/) const {
  // Callers must check selection_filter() != nullptr before asking for a
  // selection scan; backends without block structure cannot honor one.
  S3VCD_CHECK(selection_filter() != nullptr);
}

QueryResult Searcher::BallQuery(const fp::Fingerprint& /*query*/,
                                double /*epsilon*/) const {
  // Block-structured backends answer through ScanSelection instead.
  S3VCD_CHECK(selection_filter() == nullptr);
  return {};
}

double EqualExpectationRadius(const DistortionModel& model, double alpha) {
  double acc = 0;
  for (int j = 0; j < fp::kDims; ++j) {
    const double scale = model.ComponentScale(j);
    acc += scale * scale;
  }
  const double sigma_rms = std::sqrt(acc / fp::kDims);
  return ChiNormDistribution(fp::kDims, sigma_rms).Quantile(alpha);
}

}  // namespace s3vcd::core
