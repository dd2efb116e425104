#ifndef S3VCD_CORE_SEARCHER_H_
#define S3VCD_CORE_SEARCHER_H_

#include <cstdint>
#include <vector>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/filter.h"
#include "core/record.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

/// What the refinement step keeps from the scanned curve sections.
enum class RefinementMode {
  /// The paper's statistical query semantics: every fingerprint inside the
  /// selected region V_alpha is a result (the voting strategy absorbs the
  /// false ones).
  kAll,
  /// Extension: additionally require distance <= radius.
  kRadiusFilter,
  /// Extension: require the model-normalized distance
  /// sqrt(sum_j ((q_j - x_j) / scale_j)^2) <= radius, with
  /// scale_j = DistortionModel::ComponentScale(j): a radius in sigma units.
  /// The CBCD detector's default (cbcd::kCopyRadiusSigmas). On an
  /// isotropic model RefineSpec lowers it to kRadiusFilter at
  /// radius * sigma, which runs the integer SIMD kernels.
  kNormalizedRadiusFilter,
};

/// Options of a statistical query.
struct QueryOptions {
  FilterOptions filter;
  RefinementMode refinement = RefinementMode::kAll;
  /// Radius for kRadiusFilter, in byte-space distance units; for
  /// kNormalizedRadiusFilter, in sigma units of the distortion model.
  double radius = 0;
};

/// Matches plus instrumentation.
struct QueryResult {
  std::vector<Match> matches;
  QueryStats stats;
};

/// Which per-query counter a finished query bumps in the metrics registry.
enum class QueryKind {
  kStatistical,
  kRange,
  kSequentialScan,
  kKnn,
};

/// Publishes one finished query's stats into the global metrics registry
/// (the `index.*` counters and latency histograms — see
/// docs/observability.md). Every Searcher backend, the VA-file and LSH
/// baselines and both kNN searches publish exactly one record per query
/// through this function, so the registry's counters stay comparable across
/// backends; layered structures batching across shards publish one merged
/// record instead.
void RecordQueryMetrics(QueryKind kind, const QueryStats& stats,
                        uint64_t hits);

/// The two search paradigms the paper compares (plus sequential scan,
/// which is the "seqscan" backend rather than a separate paradigm).
enum class SearchParadigm {
  /// Statistical S3 query of expectation alpha (Section II).
  kStatistical,
  /// Exact spherical epsilon-range query.
  kRange,
};

/// Name of the refinement kernel ScanRecords currently dispatches to
/// ("scalar", "sse2", "avx2") — see core/scan_kernel.h. Declared here so
/// reporters that hold only a Searcher can name it.
const char* ActiveScanKernelName();

/// Size accounting common to every backend.
struct SearcherStats {
  /// Total searchable records (static part + any insert buffer).
  uint64_t records = 0;
};

/// The uniform interface over every served search structure: the paper's
/// S3 index, its persistent insertable variant (the store's "segment"
/// backend), the vamana graph and plain sequential scan. Callers above
/// core — the copy detector, the sharded service, the tool and the benches
/// — hold a Searcher and never name a concrete backend; construction goes
/// through store::MakeSearcher (store/make_searcher.h). (The VA-file and
/// LSH baselines of core/vafile.h and core/lsh.h are not Searchers: the
/// benches that compare against them construct them directly.)
///
/// Semantics: StatQuery returns the contents of a region of expectation
/// alpha. Block-structured backends (s3, segment) answer it exactly as in
/// the paper; backends without block structure (seqscan, vamana) answer it
/// as a range query at the equal-expectation radius
/// (EqualExpectationRadius below), which retrieves the distorted target
/// with the same probability alpha under the model. RangeQuery is the
/// exact epsilon-ball for every backend except vamana, whose recall is
/// bounded by its beam (asserted as a recall floor in
/// tests/backend_parity_test.cc).
///
/// The queries are written once, here, and publish one RecordQueryMetrics
/// record each under the `index.query.*` span. On a block-structured
/// backend they select the blocks through selection_filter() (paper
/// Section IV-A) and scan their curve sections through ScanSelection
/// (Section IV), under `index.filter` / `index.refine` children; such a
/// backend implements only those two. A backend without block structure
/// implements only BallQuery, the unpublished body of both its queries.
///
/// Concurrency: all query methods are const and safe to fan out. Only the
/// segment backend takes inserts (store::SegmentSearcher::TryInsert), and
/// those require external exclusion.
class Searcher {
 public:
  virtual ~Searcher() = default;

  /// Backend name ("s3", "vamana", ...), as store::MakeSearcher takes it.
  virtual const char* backend_name() const = 0;

  /// Statistical query of expectation options.filter.alpha.
  QueryResult StatQuery(const fp::Fingerprint& query,
                        const DistortionModel& model,
                        const QueryOptions& options) const;

  /// Epsilon-range query. `depth` is the partition depth of the geometric
  /// filter on block-structured backends; others ignore it.
  QueryResult RangeQuery(const fp::Fingerprint& query, double epsilon,
                         int depth) const;

  virtual SearcherStats Stats() const = 0;

  /// Approximate resident bytes of the structure (records + auxiliary
  /// data), for capacity planning and the memory columns of the benches.
  virtual uint64_t ApproxBytes() const = 0;

  /// The block filter of a block-structured backend, whose BlockSelection
  /// depends only on the query/model/filter options and can therefore be
  /// shared across shards and cached (see service::ShardedSearcher).
  /// nullptr when the backend has no block structure.
  virtual const BlockFilter* selection_filter() const { return nullptr; }

  /// Refinement scan of a precomputed block selection, appending matches
  /// and scan counters to `result`. `model` is only required for
  /// kNormalizedRadiusFilter (may be null otherwise). Only meaningful when
  /// selection_filter() != nullptr; the default implementation aborts.
  virtual void ScanSelection(const fp::Fingerprint& query,
                             const BlockSelection& selection,
                             RefinementMode mode, double radius,
                             const DistortionModel* model,
                             QueryResult* result) const;

  /// Unpublished: the records within `epsilon` of `query` that a backend
  /// without block structure finds, the body of both its queries (and of
  /// service::ShardedSearcher's per-shard step). The default aborts.
  virtual QueryResult BallQuery(const fp::Fingerprint& query,
                                double epsilon) const;
};

/// Radius of the ball that an exact range query must use to retrieve the
/// distorted target with probability `alpha` under `model`: the alpha
/// quantile of the chi distribution of ||Delta S|| (paper Section V-B,
/// the "equal expectation" comparison between the two paradigms). The
/// model's per-component scales enter through their root mean square.
double EqualExpectationRadius(const DistortionModel& model, double alpha);

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_SEARCHER_H_
