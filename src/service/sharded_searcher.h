#ifndef S3VCD_SERVICE_SHARDED_SEARCHER_H_
#define S3VCD_SERVICE_SHARDED_SEARCHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/searcher.h"
#include "fingerprint/fingerprint.h"
#include "obs/metrics.h"
#include "service/cancel_token.h"
#include "service/selection_cache.h"
#include "store/make_searcher.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace s3vcd::service {

/// How reference records are assigned to shards.
enum class ShardingPolicy {
  /// Contiguous Hilbert-key ranges with (near) equal record counts per
  /// shard. Preserves the curve locality inside each shard, so a query's
  /// selected region usually touches few shards' occupied ranges.
  kHilbertRange,
  /// Mixed hash on the reference video id. Keeps every video's
  /// fingerprints on one shard, so one video's records are scanned by one
  /// shard task.
  kRefIdHash,
};

/// Construction options of a ShardedSearcher.
struct ShardedSearcherOptions {
  /// Number of shards K, clamped to [1, 1024].
  int num_shards = 4;
  ShardingPolicy policy = ShardingPolicy::kHilbertRange;
  /// Per-shard backend, one of store::kSearcherBackends ("s3", "segment",
  /// "seqscan", "vamana"). A "segment" backend with a non-empty
  /// config.segment_store_dir takes a single shard: the shards would
  /// otherwise share one store directory.
  std::string backend = "s3";
  /// Backend construction parameters forwarded to store::MakeSearcher.
  store::SearcherConfig config;
};

/// Partitions one reference database across K Searcher shards (any
/// served backend; "s3" by default) and answers statistical
/// queries over their union.
///
/// Correctness invariant (pinned by tests/service_test.cc and
/// tests/backend_parity_test.cc): on block-structured backends a
/// statistical query's block selection depends only on the query, the
/// model and the filter options — never on database contents — so
/// scanning every shard with ONE shared selection returns exactly the
/// matches the unsharded index would return, for any shard count and
/// either policy. That shared selection is also what the SelectionCache
/// stores. Backends without block structure (selection_filter() ==
/// nullptr) degrade gracefully: each shard answers the statistical query
/// itself and the partials are merged — still exact for exhaustive
/// backends, with no selection to share or cache.
///
/// Concurrency: queries are const and safe to fan out. The shards are
/// built once and never mutated.
class ShardedSearcher {
 public:
  /// Consumes `db` and redistributes its records into K shards.
  static Result<ShardedSearcher> Build(core::FingerprintDatabase db,
                                       const ShardedSearcherOptions& options);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardedSearcherOptions& options() const { return options_; }
  const core::Searcher& shard(int i) const { return *shards_[i]; }
  size_t total_size() const;

  /// Statistical query over the union of all shards: one block selection
  /// (optionally via `cache`) and one refinement scan per shard when the
  /// backend exposes block structure, one per-shard statistical query
  /// otherwise; merged matches either way. Per-shard scan latency lands in
  /// service.shard<k>.scan_us; the per-query stats are published through
  /// the same RecordQueryMetrics path as unsharded queries.
  core::QueryResult StatisticalQuery(const fp::Fingerprint& query,
                                     const core::DistortionModel& model,
                                     const core::QueryOptions& options,
                                     SelectionCache* cache = nullptr) const;

  /// Exact epsilon-range query over the union of all shards: each shard
  /// answers the range query itself (publishing its own per-query metrics,
  /// like the no-selection statistical fallback) and the partials are
  /// merged. `depth` is the geometric filter's partition depth on
  /// block-structured backends. Exact for every backend whose RangeQuery
  /// is exact (all but vamana).
  core::QueryResult RangeQuery(const fp::Fingerprint& query, double epsilon,
                               int depth) const;

  /// Fans a batch out on `pool` — per-query selections, then one
  /// refinement-scan task per (query, shard) on block-structured backends;
  /// directly one statistical-query task per (query, shard) otherwise —
  /// so shard count multiplies the available parallelism even for small
  /// batches. Serial when pool is null. results[i] corresponds to
  /// queries[i].
  ///
  /// When `cancel` is non-null, tasks poll it and stop starting work once
  /// its deadline passes; a query counts as executed — and
  /// carries a non-default result — only if its selection AND every shard
  /// scan ran, so a cancelled batch never returns a partial shard union
  /// disguised as a complete result. `*executed` (when non-null) receives
  /// the number of fully-executed queries.
  std::vector<core::QueryResult> BatchStatisticalQuery(
      const std::vector<fp::Fingerprint>& queries,
      const core::DistortionModel& model, const core::QueryOptions& options,
      ThreadPool* pool = nullptr, SelectionCache* cache = nullptr,
      const CancelToken* cancel = nullptr, size_t* executed = nullptr) const;

 private:
  ShardedSearcher(ShardedSearcherOptions options,
                  std::vector<std::unique_ptr<core::Searcher>> shards);

  /// Computes (or fetches from `cache`) the shared block selection for one
  /// query; stores the elapsed selection time in *selection_ns and whether
  /// it was served by a cache hit in *cached (so stats don't re-report the
  /// cached selection's nodes_visited as fresh work). Returns nullptr (leaving
  /// *selection_ns at 0) when the backend has no block structure — callers
  /// then fall back to per-shard StatQuery.
  std::shared_ptr<const core::BlockSelection> GetSelection(
      const fp::Fingerprint& query, const core::DistortionModel& model,
      const core::QueryOptions& options, SelectionCache* cache,
      uint64_t* selection_ns, bool* cached) const;

  /// Refinement scan of shard `k` under a precomputed selection.
  core::QueryResult ScanShard(size_t k, const fp::Fingerprint& query,
                              const core::BlockSelection& selection,
                              const core::DistortionModel& model,
                              const core::QueryOptions& options) const;

  /// Fallback without a shared selection: shard `k` answers the
  /// statistical query itself (publishing its own per-shard metrics).
  core::QueryResult StatShard(size_t k, const fp::Fingerprint& query,
                              const core::DistortionModel& model,
                              const core::QueryOptions& options) const;

  /// Combines per-shard partial results into the query's final result.
  /// With a `selection`, publishes one merged metrics record (the shards
  /// only scanned); without one, the per-shard queries already published
  /// and the merge only aggregates the stats.
  core::QueryResult MergeShardResults(
      const core::BlockSelection* selection, uint64_t selection_ns,
      bool selection_cached, std::vector<core::QueryResult> partials) const;

  ShardedSearcherOptions options_;
  std::vector<std::unique_ptr<core::Searcher>> shards_;
  /// Per-shard scan-latency histograms ("service.shard<k>.scan_us").
  std::vector<obs::Histogram*> shard_scan_us_;
};

}  // namespace s3vcd::service

#endif  // S3VCD_SERVICE_SHARDED_SEARCHER_H_
