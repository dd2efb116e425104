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
  /// Contiguous orthant-code ranges with (near) equal record counts per
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

/// What every query of one batch asks (ShardedSearcher::RunBatch): a
/// statistical query of expectation options.filter.alpha under `model`, or
/// an exact epsilon-range query with the geometric filter at `depth`.
struct BatchSpec {
  core::SearchParadigm paradigm = core::SearchParadigm::kStatistical;
  /// Statistical batches: the distortion model (it must outlive the
  /// batch) and the query options.
  const core::DistortionModel* model = nullptr;
  core::QueryOptions options;
  /// Range batches: the radius in byte-space distance units and the
  /// partition depth of the geometric filter.
  double epsilon = 0;
  int depth = 0;

  static BatchSpec Statistical(const core::DistortionModel& model,
                               const core::QueryOptions& options);
  static BatchSpec Range(double epsilon, int depth);
};

/// Partitions one reference database across K Searcher shards (any
/// served backend; "s3" by default) and answers batches of statistical or
/// range queries over their union.
///
/// Correctness invariant (pinned by tests/service_test.cc and
/// tests/backend_parity_test.cc): on block-structured backends a query's
/// block selection depends only on the query and the filter parameters
/// (model and filter options, or epsilon and depth) — never on database
/// contents — so scanning every shard with ONE shared selection returns
/// exactly the matches the unsharded index would return, for any shard
/// count and either policy. The statistical selection is also what the
/// SelectionCache stores. Backends without block structure
/// (selection_filter() == nullptr) have no selection to share: each shard
/// answers the query itself and the partials are merged — still exact for
/// exhaustive backends.
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

  /// Answers every query of `queries` over the union of the shards;
  /// results[i] corresponds to queries[i]. Per query, in order:
  ///  1. one block selection through shard 0's selection_filter():
  ///     SelectStatistical (through `cache` when non-null) or SelectRange;
  ///  2. one ScanSelection per shard under that selection;
  ///  3. the partials merged into one result, published as one
  ///     RecordQueryMetrics record of the query's kind.
  /// On backends without block structure step 1 selects nothing and step
  /// 2 is each shard's unpublished BallQuery (at the equal-expectation
  /// radius for a statistical batch), so every backend publishes one
  /// record per query. Per-shard step-2 latency lands in
  /// service.shard<k>.scan_us.
  ///
  /// Without a pool every step runs inline, query after query. With one,
  /// each query's selection is a task that submits one scan task per
  /// shard, so the shard count multiplies the parallelism of small
  /// batches.
  ///
  /// When `cancel` is non-null, every task polls it before starting and
  /// skips its work once the deadline passes. A query counts as executed
  /// — and carries a non-default result — only if its selection and every
  /// shard scan ran, so a cancelled batch never returns a partial union of
  /// shards; serially, the executed queries are a prefix. `*executed`
  /// (when non-null) receives their number.
  std::vector<core::QueryResult> RunBatch(
      const std::vector<fp::Fingerprint>& queries, const BatchSpec& spec,
      ThreadPool* pool = nullptr, SelectionCache* cache = nullptr,
      const CancelToken* cancel = nullptr, size_t* executed = nullptr) const;

 private:
  ShardedSearcher(ShardedSearcherOptions options,
                  std::vector<std::unique_ptr<core::Searcher>> shards);

  ShardedSearcherOptions options_;
  std::vector<std::unique_ptr<core::Searcher>> shards_;
  /// Per-shard scan-latency histograms ("service.shard<k>.scan_us").
  std::vector<obs::Histogram*> shard_scan_us_;
};

}  // namespace s3vcd::service

#endif  // S3VCD_SERVICE_SHARDED_SEARCHER_H_
