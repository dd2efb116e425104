#include "service/query_service.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace s3vcd::service {

namespace {

using Clock = std::chrono::steady_clock;

obs::Gauge* const g_queue_depth =
    obs::MetricsRegistry::Global().GetGauge("service.queue_depth");
obs::Counter* const g_batches_submitted =
    obs::MetricsRegistry::Global().GetCounter("service.batches_submitted");
obs::Counter* const g_batches_completed =
    obs::MetricsRegistry::Global().GetCounter("service.batches_completed");
obs::Counter* const g_admission_rejects =
    obs::MetricsRegistry::Global().GetCounter("service.admission_rejects");
obs::Counter* const g_deadline_expirations =
    obs::MetricsRegistry::Global().GetCounter(
        "service.deadline_expirations");
// The queued/executing split of deadline_expirations: queue starvation
// (raise workers / shed load) reads very differently from slow execution
// (shrink batches / tighten the filter).
obs::Counter* const g_deadline_expired_queued =
    obs::MetricsRegistry::Global().GetCounter(
        "service.deadline_expired_queued");
obs::Counter* const g_deadline_expired_executing =
    obs::MetricsRegistry::Global().GetCounter(
        "service.deadline_expired_executing");
obs::Counter* const g_batch_queries =
    obs::MetricsRegistry::Global().GetCounter("service.batch_queries");
obs::Histogram* const g_queue_wait_us =
    obs::MetricsRegistry::Global().GetHistogram("service.queue_wait_us");
obs::Histogram* const g_execute_us =
    obs::MetricsRegistry::Global().GetHistogram("service.execute_us");
// Per-stage breakdown of a batch's end-to-end latency. stage_queue_us
// duplicates queue_wait_us bucket-for-bucket so the stage_* family is
// self-contained; selection/refine sum the per-query QueryStats CPU times
// (can exceed wall time under fan-out); stage_other_us is the wall-clock
// residual execute - selection - refine, clamped at 0 — in serial
// execution it is the merge/dispatch overhead, under fan-out the clamp
// makes it a lower bound.
obs::Histogram* const g_stage_queue_us =
    obs::MetricsRegistry::Global().GetHistogram("service.stage_queue_us");
obs::Histogram* const g_stage_selection_us =
    obs::MetricsRegistry::Global().GetHistogram(
        "service.stage_selection_us");
obs::Histogram* const g_stage_refine_us =
    obs::MetricsRegistry::Global().GetHistogram("service.stage_refine_us");
obs::Histogram* const g_stage_other_us =
    obs::MetricsRegistry::Global().GetHistogram("service.stage_other_us");

double MillisSince(Clock::time_point since, Clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - since).count();
}

Clock::duration MillisDuration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

const BatchResult& BatchHandle::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return done_; });
  return result_;
}

bool BatchHandle::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

void BatchHandle::Complete(BatchResult result) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    assert(!done_ && "batch completed twice");
    result_ = std::move(result);
    done_ = true;
  }
  done_cv_.notify_all();
}

QueryService::QueryService(const ShardedSearcher* searcher,
                           const core::DistortionModel* model,
                           const QueryServiceOptions& options)
    : searcher_(searcher), model_(model), options_(options) {
  options_.num_workers = std::max(1, options_.num_workers);
  options_.threads_per_batch = std::max(1, options_.threads_per_batch);
  options_.max_queue_depth = std::max<size_t>(1, options_.max_queue_depth);
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<SelectionCache>(options_.cache_capacity);
  }
  paused_ = options_.start_paused;
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

Result<BatchTicket> QueryService::Submit(std::vector<fp::Fingerprint> queries,
                                         const BatchOptions& options) {
  if (options.paradigm == core::SearchParadigm::kRange &&
      !(std::isfinite(options.epsilon) && options.epsilon >= 0)) {
    // A worker would abort on the filter's epsilon >= 0 check; reject here
    // instead, before the batch takes an admission slot.
    return Status::InvalidArgument(
        "range batch epsilon must be finite and >= 0, got " +
        std::to_string(options.epsilon));
  }
  const auto now = Clock::now();
  auto ticket = std::make_shared<BatchHandle>();
  ticket->queries_ = std::move(queries);
  ticket->options_ = options;
  ticket->submit_time_ = now;
  if (options.deadline_ms > 0) {
    ticket->token_ = CancelToken(now + MillisDuration(options.deadline_ms));
  }
  std::vector<BatchTicket> expired;
  Status reject = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
      return Status::FailedPrecondition(
          "query service is shut down; no new batches accepted");
    }
    // Expired-but-queued batches are dead weight: fail them now so they
    // stop holding admission slots (found only at pop time, they cause
    // spurious kUnavailable rejects under saturation).
    PurgeExpiredLocked(now, &expired);
    if (queue_.size() >= options_.max_queue_depth) {
      g_admission_rejects->Increment();
      reject = Status::Unavailable(
          "admission queue full (depth " +
          std::to_string(options_.max_queue_depth) +
          "); retry after draining");
    } else {
      queue_.push_back(ticket);
      g_queue_depth->Set(static_cast<int64_t>(queue_.size()));
    }
  }
  for (BatchTicket& dead : expired) {
    CompleteExpiredQueued(dead.get());
  }
  if (!reject.ok()) {
    return reject;
  }
  g_batches_submitted->Increment();
  work_cv_.notify_one();
  return ticket;
}

void QueryService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return;
    }
    accepting_ = false;
    shutdown_ = true;
    paused_ = false;  // a paused service still drains on shutdown
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
}

size_t QueryService::pending_batches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void QueryService::PurgeExpiredLocked(Clock::time_point now,
                                      std::vector<BatchTicket>* expired) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if ((*it)->token_.ExpiredAt(now)) {
      expired->push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  g_queue_depth->Set(static_cast<int64_t>(queue_.size()));
}

void QueryService::WorkerLoop() {
  // Each worker owns its fan-out pool, so ThreadPool::Wait() (which waits
  // for *every* submitted task) never entangles two batches.
  std::unique_ptr<ThreadPool> pool;
  if (options_.threads_per_batch > 1) {
    pool = std::make_unique<ThreadPool>(options_.threads_per_batch);
  }
  for (;;) {
    BatchTicket batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] {
        return shutdown_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        return;  // shutdown with nothing left to drain
      }
      batch = std::move(queue_.front());
      queue_.pop_front();
      g_queue_depth->Set(static_cast<int64_t>(queue_.size()));
    }
    if (batch->token_.ExpiredAt(Clock::now())) {
      CompleteExpiredQueued(batch.get());
    } else {
      FinishBatch(batch.get(), ExecuteBatch(*batch, pool.get()),
                  /*queued_expiry=*/false);
    }
  }
}

BatchResult QueryService::ExecuteBatch(const BatchHandle& batch,
                                       ThreadPool* pool) const {
  S3VCD_TRACE_SPAN("service.execute_batch");
  const auto start = Clock::now();
  BatchResult out;
  out.queue_wait_ms = MillisSince(batch.submit_time_, start);

  const BatchSpec spec =
      batch.options_.paradigm == core::SearchParadigm::kRange
          ? BatchSpec::Range(batch.options_.epsilon,
                             options_.query.filter.depth)
          : BatchSpec::Statistical(*model_, options_.query);
  out.results = searcher_->RunBatch(batch.queries_, spec, pool, cache_.get(),
                                    &batch.token_, &out.queries_executed);
  if (out.queries_executed < batch.queries_.size()) {
    // The token carries only the deadline, so an early stop means it
    // expired.
    out.status = Status::DeadlineExceeded(
        "deadline expired after " + std::to_string(out.queries_executed) +
        " of " + std::to_string(batch.queries_.size()) + " queries");
  }
  // Stage breakdown: unexecuted slots carry default (zero) stats, so the
  // sums cover exactly the work that happened.
  for (const core::QueryResult& r : out.results) {
    out.selection_ns += r.stats.selection_ns;
    out.refine_ns += r.stats.refine_ns;
  }
  out.execute_ms = MillisSince(start, Clock::now());
  return out;
}

void QueryService::CompleteExpiredQueued(BatchHandle* batch) {
  const auto now = Clock::now();
  BatchResult out;
  out.queue_wait_ms = MillisSince(batch->submit_time_, now);
  out.status = Status::DeadlineExceeded(
      "deadline expired after " + std::to_string(out.queue_wait_ms) +
      " ms in the admission queue");
  // Expired batches still report both halves of their latency: the
  // (zero) execute leg keeps the histograms' batch counts equal across
  // stages, so rates computed from them agree.
  out.execute_ms = 0;
  FinishBatch(batch, std::move(out), /*queued_expiry=*/true);
}

void QueryService::FinishBatch(BatchHandle* batch, BatchResult result,
                               bool queued_expiry) {
  g_queue_wait_us->Record(result.queue_wait_ms * 1e3);
  g_stage_queue_us->Record(result.queue_wait_ms * 1e3);
  g_execute_us->Record(result.execute_ms * 1e3);
  if (queued_expiry) {
    g_deadline_expirations->Increment();
    g_deadline_expired_queued->Increment();
  } else {
    g_batch_queries->Increment(result.queries_executed);
    if (!result.status.ok()) {
      g_deadline_expirations->Increment();
      g_deadline_expired_executing->Increment();
    }
    const double selection_us =
        static_cast<double>(result.selection_ns) * 1e-3;
    const double refine_us = static_cast<double>(result.refine_ns) * 1e-3;
    g_stage_selection_us->Record(selection_us);
    g_stage_refine_us->Record(refine_us);
    g_stage_other_us->Record(std::max(
        0.0, result.execute_ms * 1e3 - selection_us - refine_us));
  }
  g_batches_completed->Increment();
  batch->Complete(std::move(result));
}

}  // namespace s3vcd::service
