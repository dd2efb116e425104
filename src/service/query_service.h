#ifndef S3VCD_SERVICE_QUERY_SERVICE_H_
#define S3VCD_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/distortion_model.h"
#include "core/searcher.h"
#include "fingerprint/fingerprint.h"
#include "service/cancel_token.h"
#include "service/selection_cache.h"
#include "service/sharded_searcher.h"
#include "util/status.h"

namespace s3vcd::service {

/// Per-batch submission options.
struct BatchOptions {
  /// Deadline relative to submission, in milliseconds; 0 = none. A batch
  /// whose deadline elapses while queued is failed without executing; one
  /// that expires mid-execution stops early and returns the results
  /// completed so far with a kDeadlineExceeded status.
  double deadline_ms = 0;
  /// Which paradigm this batch runs. kStatistical uses the service-level
  /// QueryOptions (and the selection cache); kRange runs exact
  /// epsilon-range queries at `epsilon` and the service's filter depth
  /// (the cache does not key range selections).
  core::SearchParadigm paradigm = core::SearchParadigm::kStatistical;
  /// Range radius in byte-space distance units (kRange only).
  double epsilon = 0;
};

/// Outcome of one batch.
struct BatchResult {
  /// OK, or kDeadlineExceeded. A batch that expired while still queued
  /// carries empty results; one that expired mid-execution carries the
  /// queries that finished in time (a prefix under serial execution, any
  /// subset under pooled fan-out) with the rest default-constructed.
  Status status;
  /// results[i] corresponds to queries[i] of the submission.
  std::vector<core::QueryResult> results;
  /// Number of queries actually executed (== results.size() when OK).
  size_t queries_executed = 0;
  /// Both are populated for every completed batch, including ones that
  /// expired in the queue (execute_ms ~ 0) or mid-execution — unsuccessful
  /// batches must not vanish from the latency accounting.
  double queue_wait_ms = 0;
  double execute_ms = 0;
  /// Stage CPU totals summed over the executed queries' QueryStats, in
  /// nanoseconds (under fan-out these sum worker CPU time and can exceed
  /// the execute_ms wall time).
  uint64_t selection_ns = 0;
  uint64_t refine_ns = 0;
};

/// Completion handle of a submitted batch. Obtained from
/// QueryService::Submit; Wait() blocks until the service finishes (or
/// rejects) the batch and returns the result by reference (valid for the
/// handle's lifetime).
class BatchHandle {
 public:
  const BatchResult& Wait();
  bool done() const;

 private:
  friend class QueryService;

  void Complete(BatchResult result);

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  BatchResult result_;

  // Fields below are set by Submit before the batch is queued and are
  // read-only afterwards.
  std::vector<fp::Fingerprint> queries_;
  BatchOptions options_;
  std::chrono::steady_clock::time_point submit_time_;
  /// Carries the batch deadline (none when deadline_ms is 0).
  CancelToken token_;
};

using BatchTicket = std::shared_ptr<BatchHandle>;

/// Configuration of a QueryService.
struct QueryServiceOptions {
  /// Worker threads draining the admission queue (one batch each at a
  /// time).
  int num_workers = 2;
  /// Fan-out width inside one batch: each worker owns a ThreadPool of this
  /// many threads and spreads its batch's (query, shard) tasks across them
  /// (1 = the worker executes its batch serially).
  int threads_per_batch = 1;
  /// Bound of the admission queue, in batches. Submit rejects with
  /// kUnavailable once this many batches are waiting — the backpressure
  /// contract (docs/query_service.md).
  size_t max_queue_depth = 64;
  /// Capacity of the selection cache shared by all workers; 0 disables
  /// caching.
  size_t cache_capacity = 4096;
  /// Query options applied to every query of every batch.
  core::QueryOptions query;
  /// Start with workers paused (they enqueue but do not execute until
  /// Resume()); used by tests to make admission-control behavior
  /// deterministic, and operationally for drain control.
  bool start_paused = false;
};

/// Asynchronous batch front end over one ShardedSearcher: a bounded FIFO
/// admission queue (reject-with-Status backpressure), per-request
/// deadlines, worker fan-out and a shared selection cache.
///
/// The service is backend-agnostic: it only speaks the ShardedSearcher
/// API, which in turn speaks core::Searcher, so any served backend
/// works. The selection cache is an optimization that engages only when
/// the backend exposes block structure (selection_filter() != nullptr);
/// on other backends the service degrades gracefully — queries fan out
/// per shard exactly the same, just without cached selections.
///
/// Every accepted batch runs at most once. Whoever removes it from the run
/// queue under the queue mutex — a worker's pop, or the expiry purge —
/// owns it and completes it; nobody else touches it afterwards.
///
/// Thread model: Submit may be called from any number of producer
/// threads. Workers only read the searcher (queries are const); the
/// searcher must not be mutated (Insert/CompactAll) while the service is
/// running.
class QueryService {
 public:
  /// `searcher` and `model` must outlive the service.
  QueryService(const ShardedSearcher* searcher,
               const core::DistortionModel* model,
               const QueryServiceOptions& options);

  /// Drains and joins (equivalent to Shutdown()).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits a batch. Returns a ticket to Wait() on, or:
  ///  * kInvalidArgument for a kRange batch whose epsilon is negative or
  ///    not finite (checked first: the batch takes no slot);
  ///  * kUnavailable when the admission queue is full (backpressure —
  ///    retry after draining, typically by waiting on an earlier ticket);
  ///  * kFailedPrecondition after Shutdown().
  /// Expired-but-queued batches are purged (completed with
  /// kDeadlineExceeded) before the bound is checked, so dead batches
  /// never hold admission slots. Workers pop batches in submission order.
  Result<BatchTicket> Submit(std::vector<fp::Fingerprint> queries,
                             const BatchOptions& options = {});

  /// Resumes batch execution after QueryServiceOptions::start_paused
  /// (submissions enqueue while paused).
  void Resume();

  /// Stops accepting, executes everything already queued, joins workers.
  /// Idempotent.
  void Shutdown();

  /// Batches currently waiting for a worker.
  size_t pending_batches() const;

  /// The shared selection cache; nullptr when cache_capacity was 0.
  const SelectionCache* cache() const { return cache_.get(); }

  const QueryServiceOptions& options() const { return options_; }

  /// The searcher the service runs on (never null).
  const ShardedSearcher* searcher() const { return searcher_; }

 private:
  void WorkerLoop();
  /// Removes every expired-and-still-queued batch from the run queue and
  /// appends it to *expired (the caller completes them).
  void PurgeExpiredLocked(std::chrono::steady_clock::time_point now,
                          std::vector<BatchTicket>* expired);
  BatchResult ExecuteBatch(const BatchHandle& batch, ThreadPool* pool) const;
  /// Completes an expired-in-queue batch without executing it.
  void CompleteExpiredQueued(BatchHandle* batch);
  /// Records metrics, then Complete()s the handle. queued_expiry skips
  /// the execution-stage accounting (nothing executed).
  void FinishBatch(BatchHandle* batch, BatchResult result,
                   bool queued_expiry);

  const ShardedSearcher* searcher_;
  const core::DistortionModel* model_;
  QueryServiceOptions options_;
  std::unique_ptr<SelectionCache> cache_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  /// The run queue, oldest batch first.
  std::deque<BatchTicket> queue_;
  bool paused_ = false;
  bool accepting_ = true;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace s3vcd::service

#endif  // S3VCD_SERVICE_QUERY_SERVICE_H_
