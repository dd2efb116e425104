#ifndef S3VCD_BENCH_E2E_E2E_H_
#define S3VCD_BENCH_E2E_E2E_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cbcd/detector.h"
#include "fingerprint/extractor.h"
#include "media/frame.h"
#include "spans.h"

namespace s3vcd::e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Sets the amount of work: each workload turns it into a stream length
  /// or phase durations calibrated so that its measured part lasts about
  /// this long on the host the benchmark was defined on.
  double seconds = 12;
  bool traced = false;
  /// About 1/50 of the record counts; run.sh passes a matching --seconds.
  bool smoke = false;
  /// Scratch directory for store files.
  std::string work_dir;
  /// Chrome trace of the traced pass (traced runs only).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of one workload run.
struct RunReport {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness checks that did not hold; any entry fails the run.
  std::vector<std::string> violations;
  /// From the untraced pass.
  std::vector<Metric> end_to_end;
  /// From the traced pass (traced runs only).
  std::vector<Metric> per_layer;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      violations.push_back(what);
    }
  }
  void AddEndToEnd(const std::string& name, double value,
                   const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

RunReport RunMonitorWorkload(const RunOptions& options);
RunReport RunServeWorkload(const RunOptions& options);

/// The paper's Section V-D detector settings used by every workload:
/// alpha 0.8, sigma 15, depth max(12, log2 N - 3), spatial coherence,
/// nsim >= 8; windows of 16 key-frames overlapping by 6.
cbcd::DetectorOptions MonitorDetectorOptions(uint64_t db_records);
cbcd::StreamMonitor::Options MonitorWindowOptions();
inline constexpr double kSigma = 15.0;

/// Linearly interpolated p-quantile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// The tail quantile of a latency sample: p90, or 1 - 10/n below 100
/// samples so that ten samples lie beyond it. Sets *p to the quantile
/// used. Printed, not bounded: on a shared host it follows interference
/// more than the code.
double TailLatency(const std::vector<double>& values, double* p);

/// Runs `setup` (which returns its own duration in seconds) at least
/// `min_runs` times and until half a second has gone by, and returns the
/// median duration: a set-up of a few milliseconds is timed often enough
/// for its median to hold still.
double MedianSetupSeconds(int min_runs, const std::function<double()>& setup);

/// Exact, order-sensitive equality of extracted fingerprints and of query
/// matches.
bool SameFingerprints(const std::vector<fp::LocalFingerprint>& a,
                      const std::vector<fp::LocalFingerprint>& b);
bool SameMatches(const std::vector<core::Match>& a,
                 const std::vector<core::Match>& b);

/// Peak resident set of the process so far, in MB.
double PeakRssMb();

/// Bytes the process has written through write(2) and friends so far
/// (/proc/self/io wchar); 0 when unreadable.
uint64_t WrittenBytes();

/// Work counted at the layer boundaries of a traced pass. A layer a
/// workload does not exercise keeps its zeros, and its metrics read 0.
struct ExtractCounts {
  uint64_t keyframes = 0;
  uint64_t points = 0;
};
struct SearchCounts {
  uint64_t queries = 0;
  uint64_t nodes = 0;
  uint64_t blocks = 0;
  uint64_t records = 0;
  uint64_t matches = 0;
  double mass = 0;  ///< summed probability mass of the selections
};
struct VoteCounts {
  uint64_t windows = 0;
  uint64_t matches = 0;
  uint64_t ids = 0;
  uint64_t cost_evals = 0;
  uint64_t detections = 0;
};
struct StoreCounts {
  uint64_t inserted = 0;
  uint64_t spills = 0;
  uint64_t merges = 0;  ///< tier merges run by the store
  uint64_t max_segments = 0;
  uint64_t written_bytes = 0;
  double seconds = 0;  ///< inside TryInsert and Compact
  double bytes_per_record = 0;
};
struct ServiceCounts {
  uint64_t batches = 0;  ///< submitted, every phase
  uint64_t rejects = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double lag_s = 0;      ///< generator lateness, summed over batches
  double queue_s = 0;
  double execute_s = 0;
  double latency_s = 0;  ///< scheduled send to completion, summed
};

void AddSearchLayer(const SearchCounts& counts, double alpha, double select_s,
                    double refine_s, double wall_s, RunReport* report);
void AddVoteLayer(const VoteCounts& counts, double vote_s, double wall_s,
                  double false_alarms_per_h, RunReport* report);
void AddServiceLayer(const ServiceCounts& counts, RunReport* report);
void AddStoreLayer(const StoreCounts& counts, double wall_s,
                   RunReport* report);

/// FingerprintExtractor::Extract rebuilt from the fingerprint layer's
/// public functions, with a span around each call: key-frame detection,
/// Harris, and the derivative stacks plus descriptors. Spans carry `id`.
std::vector<fp::LocalFingerprint> TracedExtract(
    const fp::ExtractorOptions& options, const media::VideoSequence& video,
    SpanLog* spans, uint64_t id, ExtractCounts* counts);

/// Adds the fingerprint.* layer metrics. `wall_s` is the traced wall time
/// of the measured path (0 when extraction is outside it).
void AddFingerprintLayer(const std::map<std::string, double>& self_s,
                         const ExtractCounts& counts, double wall_s,
                         RunReport* report);

/// Span names, one per layer.
inline constexpr const char kKeyframeSpan[] = "fingerprint.keyframe";
inline constexpr const char kHarrisSpan[] = "fingerprint.harris";
inline constexpr const char kDescriptorSpan[] = "fingerprint.descriptor";
inline constexpr const char kSelectSpan[] = "core.select";
inline constexpr const char kRefineSpan[] = "core.refine";
inline constexpr const char kVoteSpan[] = "cbcd.vote";
inline constexpr const char kInsertSpan[] = "store.insert";
inline constexpr const char kCompactSpan[] = "store.compact";

}  // namespace s3vcd::e2e

#endif  // S3VCD_BENCH_E2E_E2E_H_
