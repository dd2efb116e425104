#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "e2e.h"
#include "fingerprint/descriptor.h"
#include "fingerprint/harris.h"
#include "fingerprint/keyframe.h"
#include "util/math.h"

namespace s3vcd::e2e {

namespace {

// Layer metrics of a layer a workload does not exercise read 0.
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

cbcd::DetectorOptions MonitorDetectorOptions(uint64_t db_records) {
  cbcd::DetectorOptions options;
  options.query.filter.alpha = 0.80;
  options.query.filter.depth =
      std::max(12, Log2Exact(NextPowerOfTwo(db_records)) - 3);
  options.vote.use_spatial_coherence = true;
  options.nsim_threshold = 8;
  return options;
}

cbcd::StreamMonitor::Options MonitorWindowOptions() {
  cbcd::StreamMonitor::Options options;
  options.window_keyframes = 16;
  options.window_overlap = 6;
  return options;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double TailLatency(const std::vector<double>& values, double* p) {
  const double n = static_cast<double>(values.size());
  *p = n >= 100 ? 0.9 : std::max(0.5, 1.0 - 10.0 / std::max(n, 1.0));
  return Percentile(values, *p);
}

double MedianSetupSeconds(int min_runs, const std::function<double()>& setup) {
  std::vector<double> seconds;
  double total = 0;
  while (static_cast<int>(seconds.size()) < min_runs || total < 0.5) {
    seconds.push_back(setup());
    total += seconds.back();
  }
  return Median(seconds);
}

bool SameFingerprints(const std::vector<fp::LocalFingerprint>& a,
                      const std::vector<fp::LocalFingerprint>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const fp::LocalFingerprint& x,
                       const fp::LocalFingerprint& y) {
                      return x.descriptor == y.descriptor && x.x == y.x &&
                             x.y == y.y && x.time_code == y.time_code;
                    });
}

bool SameMatches(const std::vector<core::Match>& a,
                 const std::vector<core::Match>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const core::Match& x, const core::Match& y) {
                      return x.id == y.id && x.time_code == y.time_code &&
                             x.distance == y.distance && x.x == y.x &&
                             x.y == y.y;
                    });
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") {
      return value;
    }
  }
  return 0;
}

std::vector<fp::LocalFingerprint> TracedExtract(
    const fp::ExtractorOptions& options, const media::VideoSequence& video,
    SpanLog* spans, uint64_t id, ExtractCounts* counts) {
  std::vector<fp::LocalFingerprint> out;
  if (video.frames.empty()) {
    return out;
  }
  std::vector<int> key_frames;
  {
    ScopedSpan span(spans, kKeyframeSpan, id);
    key_frames = fp::DetectKeyFrames(video, options.keyframe);
  }
  const int n = video.num_frames();
  const int dt = options.descriptor.temporal_offset;
  for (const int t : key_frames) {
    std::vector<fp::InterestPoint> points;
    {
      ScopedSpan span(spans, kHarrisSpan, id);
      points = fp::DetectInterestPoints(video.frames[t], options.harris);
    }
    ScopedSpan span(spans, kDescriptorSpan, id);
    const fp::DerivativeStack before(video.frames[std::clamp(t - dt, 0, n - 1)],
                                     options.descriptor.derivative_sigma);
    const fp::DerivativeStack after(video.frames[std::clamp(t + dt, 0, n - 1)],
                                    options.descriptor.derivative_sigma);
    for (const fp::InterestPoint& p : points) {
      fp::LocalFingerprint lf;
      lf.descriptor =
          fp::ComputeDescriptor(before, after, p.x, p.y, options.descriptor);
      lf.x = p.x;
      lf.y = p.y;
      lf.time_code = static_cast<uint32_t>(t);
      out.push_back(lf);
    }
    counts->points += points.size();
  }
  counts->keyframes += key_frames.size();
  return out;
}

void AddFingerprintLayer(const std::map<std::string, double>& self_s,
                         const ExtractCounts& counts, double wall_s,
                         RunReport* report) {
  const auto seconds = [&](const char* name) {
    const auto it = self_s.find(name);
    return it == self_s.end() ? 0.0 : it->second;
  };
  const double kf = static_cast<double>(counts.keyframes);
  report->AddLayer("fingerprint.keyframe.us_per_kf",
                   Ratio(seconds(kKeyframeSpan) * 1e6, kf), "us");
  report->AddLayer("fingerprint.harris.us_per_kf",
                   Ratio(seconds(kHarrisSpan) * 1e6, kf), "us");
  report->AddLayer("fingerprint.descriptor.us_per_kf",
                   Ratio(seconds(kDescriptorSpan) * 1e6, kf), "us");
  report->AddLayer("fingerprint.points_per_kf",
                   Ratio(static_cast<double>(counts.points), kf), "count");
  const double extract_s = seconds(kKeyframeSpan) + seconds(kHarrisSpan) +
                           seconds(kDescriptorSpan);
  report->AddLayer("fingerprint.share", Ratio(extract_s, wall_s), "fraction");
}

void AddSearchLayer(const SearchCounts& counts, double alpha, double select_s,
                    double refine_s, double wall_s, RunReport* report) {
  const double queries = static_cast<double>(counts.queries);
  report->AddLayer("core.select.us_per_query", Ratio(select_s * 1e6, queries),
                   "us");
  report->AddLayer("core.select.nodes_per_query",
                   Ratio(static_cast<double>(counts.nodes), queries), "count");
  report->AddLayer("core.select.blocks_per_query",
                   Ratio(static_cast<double>(counts.blocks), queries),
                   "count");
  report->AddLayer("core.select.mass_over_alpha",
                   Ratio(counts.mass, queries * alpha), "ratio");
  report->AddLayer("core.select.share", Ratio(select_s, wall_s), "fraction");
  const double records = static_cast<double>(counts.records);
  report->AddLayer("core.refine.us_per_query", Ratio(refine_s * 1e6, queries),
                   "us");
  report->AddLayer("core.refine.records_per_query", Ratio(records, queries),
                   "count");
  report->AddLayer("core.refine.ns_per_record", Ratio(refine_s * 1e9, records),
                   "ns");
  report->AddLayer("core.refine.match_ratio",
                   Ratio(static_cast<double>(counts.matches), records),
                   "fraction");
  report->AddLayer("core.refine.share", Ratio(refine_s, wall_s), "fraction");
}

void AddVoteLayer(const VoteCounts& counts, double vote_s, double wall_s,
                  double false_alarms_per_h, RunReport* report) {
  const double windows = static_cast<double>(counts.windows);
  report->AddLayer("cbcd.vote.share", Ratio(vote_s, wall_s), "fraction");
  report->AddLayer("cbcd.vote.matches_per_window",
                   Ratio(static_cast<double>(counts.matches), windows),
                   "count");
  report->AddLayer("cbcd.vote.ids_per_window",
                   Ratio(static_cast<double>(counts.ids), windows), "count");
  report->AddLayer("cbcd.vote.cost_evals_per_window",
                   Ratio(static_cast<double>(counts.cost_evals), windows),
                   "count");
  report->AddLayer("cbcd.vote.matches_per_s",
                   Ratio(static_cast<double>(counts.matches), vote_s), "1/s");
  report->AddLayer("cbcd.vote.detect_ratio",
                   Ratio(static_cast<double>(counts.detections),
                         static_cast<double>(counts.ids)),
                   "fraction");
  report->AddLayer("cbcd.false_alarms_per_h", false_alarms_per_h, "1/h");
}

void AddServiceLayer(const ServiceCounts& counts, RunReport* report) {
  report->AddLayer("service.lag.share", Ratio(counts.lag_s, counts.latency_s),
                   "fraction");
  report->AddLayer("service.queue.share",
                   Ratio(counts.queue_s, counts.latency_s), "fraction");
  report->AddLayer("service.execute.share",
                   Ratio(counts.execute_s, counts.latency_s), "fraction");
  report->AddLayer(
      "service.cache_hit_ratio",
      Ratio(static_cast<double>(counts.cache_hits),
            static_cast<double>(counts.cache_hits + counts.cache_misses)),
      "fraction");
  report->AddLayer("service.reject_frac",
                   Ratio(static_cast<double>(counts.rejects),
                         static_cast<double>(counts.batches)),
                   "fraction");
}

void AddStoreLayer(const StoreCounts& counts, double wall_s,
                   RunReport* report) {
  const double inserted = static_cast<double>(counts.inserted);
  report->AddLayer("store.share", Ratio(counts.seconds, wall_s), "fraction");
  report->AddLayer("store.records_per_s", Ratio(inserted, counts.seconds),
                   "1/s");
  report->AddLayer("store.spills", static_cast<double>(counts.spills),
                   "count");
  report->AddLayer("store.merges",
                   static_cast<double>(counts.merges), "count");
  report->AddLayer("store.segments_max",
                   static_cast<double>(counts.max_segments), "count");
  // Each inserted record is 36 bytes of payload (descriptor, id, time code,
  // position).
  report->AddLayer("store.write_amp",
                   Ratio(static_cast<double>(counts.written_bytes),
                         inserted * 36.0),
                   "ratio");
  report->AddLayer("store.bytes_per_record", counts.bytes_per_record, "B");
}

}  // namespace s3vcd::e2e
