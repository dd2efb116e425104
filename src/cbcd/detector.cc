#include "cbcd/detector.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace s3vcd::cbcd {

namespace {

obs::Counter* const g_queries =
    obs::MetricsRegistry::Global().GetCounter("cbcd.queries");
obs::Counter* const g_matches =
    obs::MetricsRegistry::Global().GetCounter("cbcd.matches");
obs::Counter* const g_detections =
    obs::MetricsRegistry::Global().GetCounter("cbcd.detections_emitted");
obs::Counter* const g_windows =
    obs::MetricsRegistry::Global().GetCounter("cbcd.windows_evaluated");
obs::Histogram* const g_search_us =
    obs::MetricsRegistry::Global().GetHistogram("cbcd.search_us");
obs::Histogram* const g_vote_us =
    obs::MetricsRegistry::Global().GetHistogram("cbcd.vote_us");

// The votes of a window, which already meet the nsim threshold, as
// detections.
std::vector<Detection> ToDetections(const std::vector<Vote>& votes) {
  std::vector<Detection> detections;
  detections.reserve(votes.size());
  for (const Vote& vote : votes) {
    detections.push_back({vote.id, vote.offset, vote.nsim, vote.cost});
  }
  g_detections->Increment(detections.size());
  return detections;
}

}  // namespace

CopyDetector::CopyDetector(const core::Searcher* searcher,
                           const core::DistortionModel* model,
                           DetectorOptions options)
    : searcher_(searcher), model_(model), options_(options) {
  S3VCD_CHECK(searcher != nullptr);
  S3VCD_CHECK(model != nullptr);
}

CandidateEntry CopyDetector::SearchOne(const fp::LocalFingerprint& lf,
                                       DetectionStats* stats) const {
  CandidateEntry entry;
  entry.candidate_time_code = lf.time_code;
  entry.x = lf.x;
  entry.y = lf.y;
  Stopwatch watch;
  core::QueryResult result =
      searcher_->StatQuery(lf.descriptor, *model_, options_.query);
  entry.matches = std::move(result.matches);
  const double search_seconds = watch.ElapsedSeconds();
  g_queries->Increment();
  g_matches->Increment(entry.matches.size());
  g_search_us->Record(search_seconds * 1e6);
  if (stats != nullptr) {
    stats->search_seconds += search_seconds;
    ++stats->queries;
    stats->matches += entry.matches.size();
  }
  return entry;
}

std::vector<Detection> CopyDetector::DetectClip(
    const std::vector<fp::LocalFingerprint>& candidate_fps,
    DetectionStats* stats) const {
  S3VCD_TRACE_SPAN("cbcd.detect_clip");
  std::vector<CandidateEntry> entries;
  entries.reserve(candidate_fps.size());
  for (const fp::LocalFingerprint& lf : candidate_fps) {
    entries.push_back(SearchOne(lf, stats));
  }
  Stopwatch watch;
  const std::vector<Vote> votes =
      ComputeVotes(entries, options_.vote, options_.nsim_threshold);
  const double vote_seconds = watch.ElapsedSeconds();
  g_vote_us->Record(vote_seconds * 1e6);
  if (stats != nullptr) {
    stats->vote_seconds += vote_seconds;
  }
  return ToDetections(votes);
}

StreamMonitor::StreamMonitor(const CopyDetector* detector, Options options)
    : detector_(detector), options_(options) {
  S3VCD_CHECK(detector != nullptr);
  S3VCD_CHECK(options.window_keyframes > 0);
  S3VCD_CHECK(options.window_overlap >= 0 &&
              options.window_overlap < options.window_keyframes);
}

std::vector<Detection> StreamMonitor::EvaluateWindow(DetectionStats* stats) {
  S3VCD_TRACE_SPAN("cbcd.evaluate_window");
  Stopwatch watch;
  const std::vector<Vote> votes =
      ComputeVotes(buffer_, detector_->options().vote,
                   detector_->options().nsim_threshold);
  const double vote_seconds = watch.ElapsedSeconds();
  g_windows->Increment();
  g_vote_us->Record(vote_seconds * 1e6);
  if (stats != nullptr) {
    stats->vote_seconds += vote_seconds;
  }
  return ToDetections(votes);
}

std::vector<Detection> StreamMonitor::PushKeyFrame(
    const std::vector<fp::LocalFingerprint>& keyframe_fps,
    DetectionStats* stats) {
  for (const fp::LocalFingerprint& lf : keyframe_fps) {
    buffer_.push_back(detector_->SearchOne(lf, stats));
  }
  ++keyframes_in_window_;
  if (keyframes_in_window_ < options_.window_keyframes) {
    return {};
  }
  std::vector<Detection> detections = EvaluateWindow(stats);
  // Slide: keep the overlap tail. Entries are grouped per key-frame in
  // arrival order; drop whole leading key-frames by time code.
  const int drop_keyframes =
      options_.window_keyframes - options_.window_overlap;
  size_t drop = 0;
  for (int dropped = 0; drop < buffer_.size() && dropped < drop_keyframes;
       ++dropped) {
    const uint32_t tc = buffer_[drop].candidate_time_code;
    while (drop < buffer_.size() && buffer_[drop].candidate_time_code == tc) {
      ++drop;
    }
  }
  buffer_.erase(buffer_.begin(), buffer_.begin() + drop);
  keyframes_in_window_ = options_.window_overlap;
  return detections;
}

std::vector<Detection> StreamMonitor::Flush(DetectionStats* stats) {
  if (buffer_.empty()) {
    return {};
  }
  std::vector<Detection> detections = EvaluateWindow(stats);
  buffer_.clear();
  keyframes_in_window_ = 0;
  return detections;
}

void IngestReferenceVideo(core::DatabaseBuilder* builder,
                          const fp::FingerprintExtractor& extractor,
                          uint32_t id, const media::VideoSequence& video) {
  builder->AddVideo(id, extractor.Extract(video));
}

}  // namespace s3vcd::cbcd
