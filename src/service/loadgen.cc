#include "service/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "core/searcher.h"
#include "util/rng.h"
#include "util/timer.h"

namespace s3vcd::service {

namespace {

using Clock = std::chrono::steady_clock;

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Exact percentiles over the collected samples (sorts in place).
LatencySummary Summarize(std::vector<double>& samples) {
  LatencySummary s;
  s.samples = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (double v : samples) {
    sum += v;
  }
  const auto at = [&samples](double q) {
    const double rank = std::ceil(q * static_cast<double>(samples.size()));
    const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return samples[std::min(idx, samples.size() - 1)];
  };
  s.mean_ms = sum / static_cast<double>(samples.size());
  s.p50_ms = at(0.50);
  s.p95_ms = at(0.95);
  s.p99_ms = at(0.99);
  s.p999_ms = at(0.999);
  s.max_ms = samples.back();
  return s;
}

/// One request drawn from the workload mix.
struct Request {
  std::vector<fp::Fingerprint> queries;
  BatchOptions options;
};

/// Per-phase completion collector; client/harvester threads feed it under
/// the mutex, the phase assembles the report after they join.
struct Collector {
  std::mutex mutex;
  uint64_t completed_ok = 0;
  uint64_t deadline_expired = 0;
  uint64_t queries_executed = 0;
  std::vector<double> latencies_ms;  ///< OK batches only
  double queue_sum_ms = 0;
  double execute_sum_ms = 0;
  double selection_sum_ms = 0;
  double refine_sum_ms = 0;

  void Record(const BatchResult& result, double latency_ms) {
    std::lock_guard<std::mutex> lock(mutex);
    queries_executed += result.queries_executed;
    if (!result.status.ok()) {
      ++deadline_expired;
      return;
    }
    ++completed_ok;
    latencies_ms.push_back(latency_ms);
    queue_sum_ms += result.queue_wait_ms;
    execute_sum_ms += result.execute_ms;
    selection_sum_ms += result.selection_ns * 1e-6;
    refine_sum_ms += result.refine_ns * 1e-6;
  }
};

class WorkloadDrawer {
 public:
  WorkloadDrawer(const std::vector<fp::Fingerprint>& pool,
                 const LoadGenOptions& options, double epsilon, Rng rng)
      : pool_(pool), options_(options), epsilon_(epsilon), rng_(rng) {
    const double total = std::max(1e-12, options.mix.stat_single +
                                             options.mix.range_single +
                                             options.mix.stat_batch);
    stat_single_ = options.mix.stat_single / total;
    range_single_ = options.mix.range_single / total;
  }

  Request Draw() {
    Request request;
    request.options.deadline_ms = options_.deadline_ms;
    const double u = rng_.Uniform(0, 1);
    size_t count = 1;
    if (u < stat_single_) {
      // statistical single: defaults
    } else if (u < stat_single_ + range_single_) {
      request.options.paradigm = core::SearchParadigm::kRange;
      request.options.epsilon = epsilon_;
    } else {
      count = std::max<size_t>(1, options_.batch_size);
    }
    request.queries.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      request.queries.push_back(pool_[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(pool_.size()) - 1))]);
    }
    return request;
  }

 private:
  const std::vector<fp::Fingerprint>& pool_;
  const LoadGenOptions& options_;
  double epsilon_;
  double stat_single_ = 1;
  double range_single_ = 0;
  Rng rng_;
};

void FinishPhaseRates(PhaseReport* phase, Collector* collector) {
  phase->completed_ok = collector->completed_ok;
  phase->deadline_expired = collector->deadline_expired;
  phase->queries_executed = collector->queries_executed;
  phase->offered_qps =
      phase->duration_s > 0
          ? static_cast<double>(phase->offered) / phase->duration_s
          : 0;
  phase->goodput_qps =
      phase->elapsed_s > 0
          ? static_cast<double>(phase->completed_ok) / phase->elapsed_s
          : 0;
  phase->reject_rate =
      phase->offered > 0
          ? static_cast<double>(phase->rejected) / phase->offered
          : 0;
  phase->deadline_miss_rate =
      phase->accepted > 0
          ? static_cast<double>(phase->deadline_expired) / phase->accepted
          : 0;
  phase->e2e = Summarize(collector->latencies_ms);
  if (collector->completed_ok > 0) {
    const double n = static_cast<double>(collector->completed_ok);
    phase->stages.queue_ms = collector->queue_sum_ms / n;
    phase->stages.execute_ms = collector->execute_sum_ms / n;
    phase->stages.selection_ms = collector->selection_sum_ms / n;
    phase->stages.refine_ms = collector->refine_sum_ms / n;
    phase->stages.other_ms =
        std::max(0.0, phase->stages.execute_ms - phase->stages.selection_ms -
                          phase->stages.refine_ms);
  }
}

/// Closed loop: `clients` threads in submit -> wait -> think lockstep with
/// the service; rejected submissions retry after a short pause, so offered
/// load self-limits to sustained capacity.
PhaseReport RunClosedLoopPhase(QueryService& service,
                               const std::vector<fp::Fingerprint>& pool,
                               const LoadGenOptions& options, double epsilon,
                               double multiplier, double seconds,
                               uint64_t phase_seed) {
  PhaseReport phase;
  phase.multiplier = multiplier;
  phase.clients = std::max(
      1, static_cast<int>(std::lround(options.base_clients * multiplier)));
  phase.duration_s = seconds;

  Collector collector;
  std::mutex counts_mutex;
  uint64_t offered = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t retries = 0;
  double retry_wait_ms = 0;

  const auto phase_start = Clock::now();
  const auto phase_end =
      phase_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));

  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(phase.clients));
  for (int c = 0; c < phase.clients; ++c) {
    clients.emplace_back([&, c] {
      WorkloadDrawer drawer(pool, options, epsilon,
                            Rng(phase_seed * 1315423911u + c));
      uint64_t my_offered = 0, my_accepted = 0, my_rejected = 0;
      uint64_t my_retries = 0;
      double my_retry_wait_ms = 0;
      while (Clock::now() < phase_end) {
        Request request = drawer.Draw();
        // The e2e clock starts at the FIRST submission attempt, so the
        // reject-retry pauses below are inside the reported sample — the
        // client-observed latency under backpressure, not just the lucky
        // accepted-first-try path (coordinated-omission safety for the
        // closed loop).
        Stopwatch watch;
        BatchTicket ticket;
        bool gave_up = false;
        for (;;) {
          ++my_offered;
          Result<BatchTicket> submitted =
              service.Submit(request.queries, request.options);
          if (submitted.ok()) {
            ticket = *submitted;
            ++my_accepted;
            break;
          }
          ++my_rejected;
          if (Clock::now() >= phase_end) {
            gave_up = true;
            break;
          }
          ++my_retries;
          Stopwatch pause;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          my_retry_wait_ms += pause.ElapsedMillis();
        }
        if (gave_up) {
          break;
        }
        const BatchResult& result = ticket->Wait();
        collector.Record(result, watch.ElapsedMillis());
        if (options.think_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(options.think_ms));
        }
      }
      std::lock_guard<std::mutex> lock(counts_mutex);
      offered += my_offered;
      accepted += my_accepted;
      rejected += my_rejected;
      retries += my_retries;
      retry_wait_ms += my_retry_wait_ms;
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  phase.elapsed_s =
      std::chrono::duration<double>(Clock::now() - phase_start).count();
  phase.offered = offered;
  phase.accepted = accepted;
  phase.rejected = rejected;
  phase.retries = retries;
  phase.retry_wait_ms = retry_wait_ms;
  FinishPhaseRates(&phase, &collector);
  return phase;
}

/// Bounded FIFO handoff from the open-loop dispatcher to the harvester.
struct HarvestQueue {
  struct Item {
    BatchTicket ticket;
    double send_lag_ms = 0;
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Item> items;
  bool closed = false;

  void Push(Item item, size_t cap) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return items.size() < cap; });
    items.push_back(std::move(item));
    cv.notify_all();
  }

  bool Pop(Item* item) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return closed || !items.empty(); });
    if (items.empty()) {
      return false;
    }
    *item = std::move(items.front());
    items.pop_front();
    cv.notify_all();
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mutex);
    closed = true;
    cv.notify_all();
  }
};

/// Open loop: submissions fire on a precomputed arrival schedule whether
/// or not earlier ones completed; rejected arrivals are dropped (counted),
/// not retried — the point is to observe the service under an offered
/// load it does not control.
PhaseReport RunOpenLoopPhase(QueryService& service,
                             const std::vector<fp::Fingerprint>& pool,
                             const LoadGenOptions& options, double epsilon,
                             double multiplier, double target_qps,
                             double seconds, uint64_t phase_seed) {
  PhaseReport phase;
  phase.multiplier = multiplier;
  phase.target_qps = target_qps;
  phase.duration_s = seconds;

  Collector collector;
  HarvestQueue harvest;
  std::thread harvester([&] {
    HarvestQueue::Item item;
    while (harvest.Pop(&item)) {
      const BatchResult& result = item.ticket->Wait();
      // Coordinated-omission-safe end to end: scheduled arrival to
      // completion = dispatcher lateness + queue wait + execution.
      collector.Record(result, item.send_lag_ms + result.queue_wait_ms +
                                   result.execute_ms);
    }
  });

  WorkloadDrawer drawer(pool, options, epsilon, Rng(phase_seed));
  Rng arrival_rng(phase_seed ^ 0x9e3779b97f4a7c15ull);
  const double mean_gap_s = 1.0 / std::max(1e-6, target_qps);

  const auto phase_start = Clock::now();
  const auto phase_end =
      phase_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
  double next_arrival_s = 0;
  for (;;) {
    // Poisson arrivals: exponential gaps.
    next_arrival_s += -std::log(1.0 - arrival_rng.Uniform(0, 1)) * mean_gap_s;
    const auto scheduled =
        phase_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(next_arrival_s));
    if (scheduled >= phase_end) {
      break;
    }
    std::this_thread::sleep_until(scheduled);
    Request request = drawer.Draw();
    const double send_lag_ms = MillisBetween(scheduled, Clock::now());
    ++phase.offered;
    Result<BatchTicket> submitted =
        service.Submit(std::move(request.queries), request.options);
    if (!submitted.ok()) {
      ++phase.rejected;
      continue;
    }
    ++phase.accepted;
    harvest.Push({*submitted, send_lag_ms}, options.max_outstanding);
  }
  harvest.Close();
  harvester.join();
  phase.elapsed_s =
      std::chrono::duration<double>(Clock::now() - phase_start).count();
  FinishPhaseRates(&phase, &collector);
  return phase;
}

std::string PhaseToJson(const PhaseReport& p) {
  std::string out = "    {";
  out += "\"multiplier\": " + FormatDouble(p.multiplier);
  out += ", \"calibration\": " + std::string(p.calibration ? "true"
                                                           : "false");
  out += ", \"target_qps\": " + FormatDouble(p.target_qps);
  out += ", \"clients\": " + std::to_string(p.clients);
  out += ", \"duration_s\": " + FormatDouble(p.duration_s);
  out += ", \"elapsed_s\": " + FormatDouble(p.elapsed_s);
  out += ", \"offered\": " + std::to_string(p.offered);
  out += ", \"accepted\": " + std::to_string(p.accepted);
  out += ", \"rejected\": " + std::to_string(p.rejected);
  out += ", \"retries\": " + std::to_string(p.retries);
  out += ", \"retry_wait_ms\": " + FormatDouble(p.retry_wait_ms);
  out += ", \"completed_ok\": " + std::to_string(p.completed_ok);
  out += ", \"deadline_expired\": " + std::to_string(p.deadline_expired);
  out += ", \"queries_executed\": " + std::to_string(p.queries_executed);
  out += ", \"offered_qps\": " + FormatDouble(p.offered_qps);
  out += ", \"goodput_qps\": " + FormatDouble(p.goodput_qps);
  out += ", \"reject_rate\": " + FormatDouble(p.reject_rate);
  out += ", \"deadline_miss_rate\": " + FormatDouble(p.deadline_miss_rate);
  out += ",\n     \"latency_ms\": {\"samples\": " +
         std::to_string(p.e2e.samples) +
         ", \"mean\": " + FormatDouble(p.e2e.mean_ms) +
         ", \"p50\": " + FormatDouble(p.e2e.p50_ms) +
         ", \"p95\": " + FormatDouble(p.e2e.p95_ms) +
         ", \"p99\": " + FormatDouble(p.e2e.p99_ms) +
         ", \"p999\": " + FormatDouble(p.e2e.p999_ms) +
         ", \"max\": " + FormatDouble(p.e2e.max_ms) + "}";
  out += ",\n     \"stages_ms\": {\"queue\": " +
         FormatDouble(p.stages.queue_ms) +
         ", \"execute\": " + FormatDouble(p.stages.execute_ms) +
         ", \"selection\": " + FormatDouble(p.stages.selection_ms) +
         ", \"refine\": " + FormatDouble(p.stages.refine_ms) +
         ", \"other\": " + FormatDouble(p.stages.other_ms) + "}";
  out += "}";
  return out;
}

}  // namespace

std::string LoadGenReport::ToJson() const {
  std::string out = "{\n";
  out += "  \"tool\": \"loadgen\",\n";
  out += std::string("  \"mode\": \"") +
         (mode == LoadMode::kOpenLoop ? "open" : "closed") + "\",\n";
  out += "  \"base_qps\": " + FormatDouble(base_qps) + ",\n";
  out += "  \"base_clients\": " + std::to_string(base_clients) + ",\n";
  out += "  \"deadline_ms\": " + FormatDouble(deadline_ms) + ",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"scan_kernel\": \"" + scan_kernel + "\",\n";
  out += "  \"codec\": \"" + codec + "\",\n";
  out += "  \"phases\": [\n";
  for (size_t i = 0; i < phases.size(); ++i) {
    out += PhaseToJson(phases[i]);
    out += i + 1 < phases.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

LoadGenReport RunLoadGen(QueryService& service,
                         const std::vector<fp::Fingerprint>& query_pool,
                         const core::DistortionModel& model,
                         const LoadGenOptions& options) {
  LoadGenReport report;
  report.mode = options.mode;
  report.base_clients = options.base_clients;
  report.deadline_ms = options.deadline_ms;
  report.seed = options.seed;
  report.scan_kernel = core::ActiveScanKernelName();
  if (service.searcher() != nullptr && service.searcher()->num_shards() > 0) {
    // Shards share one SearcherConfig, so shard 0's codec speaks for all.
    report.codec = service.searcher()->shard(0).Stats().codec;
  }
  if (query_pool.empty()) {
    return report;
  }
  const double epsilon =
      options.epsilon > 0
          ? options.epsilon
          : core::EqualExpectationRadius(
                model, service.options().query.filter.alpha);

  double base_qps = options.base_qps;
  if (options.mode == LoadMode::kOpenLoop && base_qps <= 0) {
    // Calibrate: a short closed-loop run measures sustained capacity, so
    // the ramp multipliers straddle the knee instead of guessing at it.
    PhaseReport calibration = RunClosedLoopPhase(
        service, query_pool, options, epsilon, 1.0,
        std::max(0.5, options.calibrate_seconds), options.seed + 1);
    calibration.calibration = true;
    base_qps = std::max(1.0, calibration.goodput_qps);
    report.phases.push_back(std::move(calibration));
  }
  report.base_qps = base_qps;

  for (size_t i = 0; i < options.ramp.size(); ++i) {
    const double multiplier = options.ramp[i];
    const uint64_t phase_seed = options.seed + 100 * (i + 1);
    report.phases.push_back(
        options.mode == LoadMode::kOpenLoop
            ? RunOpenLoopPhase(service, query_pool, options, epsilon,
                               multiplier, base_qps * multiplier,
                               options.phase_seconds, phase_seed)
            : RunClosedLoopPhase(service, query_pool, options, epsilon,
                                 multiplier, options.phase_seconds,
                                 phase_seed));
  }
  return report;
}

}  // namespace s3vcd::service
