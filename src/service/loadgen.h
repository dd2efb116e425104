#ifndef S3VCD_SERVICE_LOADGEN_H_
#define S3VCD_SERVICE_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fingerprint/fingerprint.h"
#include "service/query_service.h"

// Load generator for the QueryService: drives a ramp of phases against a
// live service and reports, per phase, offered load vs. goodput, reject
// and deadline-miss rates, exact end-to-end latency percentiles and the
// per-stage latency breakdown. Two modes:
//
//  * Closed loop — K concurrent clients, each submit -> wait -> think.
//    Offered load self-limits to what the service sustains; the phase
//    multiplier scales the client count. Measures capacity.
//  * Open loop — submissions arrive on their own Poisson schedule around
//    a target rate regardless of completions; the phase multiplier
//    scales the target rate. Measures
//    behavior under offered load the service does not control, which is
//    where the overload knee (goodput flattens, rejects climb, p99
//    explodes) becomes visible.
//
// Open-loop latencies are coordinated-omission safe: a batch's end-to-end
// latency is measured from its *scheduled* arrival (send lag — the
// dispatcher running late because the system is saturated — counts), as
// send_lag + queue_wait + execute from the BatchResult.
//
// The workload is a weighted mix of single-query statistical batches,
// single-query range batches and multi-query statistical batches, drawn
// per submission from a deterministic seed.

namespace s3vcd::service {

enum class LoadMode { kClosedLoop, kOpenLoop };

/// Relative weights of the request types (normalized internally; types
/// with weight 0 never occur).
struct WorkloadMix {
  double stat_single = 1.0;
  double range_single = 0.0;
  double stat_batch = 0.0;  ///< batch_size statistical queries per batch
};

struct LoadGenOptions {
  LoadMode mode = LoadMode::kOpenLoop;

  /// Open loop: batch arrival rate of the 1.0x phase, batches/s. <= 0
  /// runs a closed-loop calibration first and uses its goodput, so the
  /// default ramp straddles the knee by construction.
  double base_qps = 0;
  /// Closed loop (and calibration): concurrent clients of the 1.0x phase.
  int base_clients = 4;
  /// Closed loop: per-client pause between a completion and the next
  /// submission, ms.
  double think_ms = 0;

  /// One phase per multiplier; open loop multiplies base_qps, closed loop
  /// multiplies base_clients (rounded, min 1).
  std::vector<double> ramp = {0.5, 1.0, 2.0, 4.0};
  double phase_seconds = 5.0;
  /// Length of the closed-loop calibration run when base_qps <= 0.
  double calibrate_seconds = 2.0;

  WorkloadMix mix;
  size_t batch_size = 8;
  /// Range radius for range batches; <= 0 derives the equal-expectation
  /// radius from the service's model and alpha.
  double epsilon = 0;
  double deadline_ms = 0;  ///< per-batch deadline; 0 = none
  uint64_t seed = 42;

  /// Max completions in flight awaiting harvest (open loop); dispatcher
  /// stalls above this (counted as send lag, not dropped).
  size_t max_outstanding = 4096;
};

/// Exact-sample latency summary, milliseconds.
struct LatencySummary {
  uint64_t samples = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double max_ms = 0;
};

/// Mean per-completed-batch stage times, milliseconds. queue/execute are
/// wall time; selection/refine are CPU sums from the per-query stats;
/// other is the wall residual execute - selection - refine clamped at 0.
struct StageBreakdown {
  double queue_ms = 0;
  double execute_ms = 0;
  double selection_ms = 0;
  double refine_ms = 0;
  double other_ms = 0;
};

struct PhaseReport {
  double multiplier = 1;
  bool calibration = false;
  double target_qps = 0;  ///< open loop only
  int clients = 0;        ///< closed loop only
  double duration_s = 0;  ///< dispatch window
  double elapsed_s = 0;   ///< dispatch window + drain

  uint64_t offered = 0;   ///< submission attempts (retries count)
  uint64_t accepted = 0;
  uint64_t rejected = 0;  ///< kUnavailable (admission queue full)
  /// Closed loop: rejected submissions that were retried after a pause
  /// (every reject except a client giving up at phase end).
  uint64_t retries = 0;
  /// Closed loop: total client wall time spent in reject-retry pauses,
  /// ms. This time is inside the reported e2e samples — a client's clock
  /// starts at its FIRST submission attempt, so backpressure shows up as
  /// client-observed latency instead of silently vanishing.
  double retry_wait_ms = 0;
  uint64_t completed_ok = 0;
  uint64_t deadline_expired = 0;
  uint64_t queries_executed = 0;

  double offered_qps = 0;    ///< offered / duration_s
  double goodput_qps = 0;    ///< completed_ok / elapsed_s
  double reject_rate = 0;    ///< rejected / offered
  double deadline_miss_rate = 0;  ///< expired / accepted

  /// End-to-end latency of OK batches (scheduled arrival to completion).
  LatencySummary e2e;
  StageBreakdown stages;
};

struct LoadGenReport {
  LoadMode mode = LoadMode::kOpenLoop;
  double base_qps = 0;  ///< after calibration, when one ran
  int base_clients = 0;
  double deadline_ms = 0;
  uint64_t seed = 0;
  /// Dispatched refinement kernel (core::ActiveScanKernelName()) and the
  /// descriptor codec of shard 0's backend — recorded so a saved report is
  /// attributable to the ISA/codec configuration that produced it.
  std::string scan_kernel = "scalar";
  std::string codec = "exact";
  std::vector<PhaseReport> phases;

  std::string ToJson() const;
};

/// Runs the full ramp (plus calibration when needed) against `service`.
/// `query_pool` supplies the fingerprints (sampled with replacement,
/// deterministically from options.seed) and must be non-empty. `model` is
/// only consulted for the equal-expectation epsilon default. The service
/// must be running (not paused, not shut down).
LoadGenReport RunLoadGen(QueryService& service,
                         const std::vector<fp::Fingerprint>& query_pool,
                         const core::DistortionModel& model,
                         const LoadGenOptions& options);

}  // namespace s3vcd::service

#endif  // S3VCD_SERVICE_LOADGEN_H_
