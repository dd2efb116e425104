#include "fingerprint/extractor.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace s3vcd::fp {

namespace {

obs::Counter* const g_keyframes =
    obs::MetricsRegistry::Global().GetCounter("fingerprint.keyframes");
obs::Counter* const g_points =
    obs::MetricsRegistry::Global().GetCounter("fingerprint.points");
obs::Histogram* const g_extract_us =
    obs::MetricsRegistry::Global().GetHistogram("fingerprint.extract_us");

// Clamped frame index access for the temporal descriptor support.
int ClampFrame(int idx, int num_frames) {
  return std::clamp(idx, 0, num_frames - 1);
}

}  // namespace

std::vector<LocalFingerprint> FingerprintExtractor::Extract(
    const media::VideoSequence& video) const {
  Stopwatch watch;
  std::vector<LocalFingerprint> out;
  const std::vector<int> key_frames =
      DetectKeyFrames(video, options_.keyframe);
  const int n = video.num_frames();
  const int dt = options_.descriptor.temporal_offset;
  // This call's own working memory, so concurrent calls share nothing.
  HarrisDetector harris(options_.harris);
  for (int t : key_frames) {
    std::vector<InterestPoint> points;
    {
      S3VCD_TRACE_SPAN("fingerprint.harris");
      points = harris.Detect(video.frames[t]);
    }
    S3VCD_TRACE_SPAN("fingerprint.descriptor");
    const DerivativeStack before(video.frames[ClampFrame(t - dt, n)],
                                 options_.descriptor.derivative_sigma);
    const DerivativeStack after(video.frames[ClampFrame(t + dt, n)],
                                options_.descriptor.derivative_sigma);
    for (const InterestPoint& p : points) {
      LocalFingerprint lf;
      lf.descriptor =
          ComputeDescriptor(before, after, p.x, p.y, options_.descriptor);
      lf.x = p.x;
      lf.y = p.y;
      lf.time_code = static_cast<uint32_t>(t);
      out.push_back(lf);
    }
    g_keyframes->Increment();
    g_points->Increment(points.size());
  }
  g_extract_us->Record(watch.ElapsedMicros());
  return out;
}

FingerprintExtractor::PositionedResult
FingerprintExtractor::ExtractAtPositions(
    const media::VideoSequence& video, int key_frame,
    const std::vector<std::pair<double, double>>& positions) const {
  PositionedResult result;
  S3VCD_CHECK(key_frame >= 0 && key_frame < video.num_frames());
  const int n = video.num_frames();
  const int dt = options_.descriptor.temporal_offset;
  const DerivativeStack before(video.frames[ClampFrame(key_frame - dt, n)],
                               options_.descriptor.derivative_sigma);
  const DerivativeStack after(video.frames[ClampFrame(key_frame + dt, n)],
                              options_.descriptor.derivative_sigma);
  const double margin = BorderMargin();
  const double w = video.width();
  const double h = video.height();
  result.kept.reserve(positions.size());
  for (const auto& [x, y] : positions) {
    if (!std::isfinite(x) || !std::isfinite(y) || x < margin || y < margin ||
        x >= w - margin || y >= h - margin) {
      result.kept.push_back(false);
      continue;
    }
    LocalFingerprint lf;
    lf.descriptor = ComputeDescriptor(before, after, x, y,
                                      options_.descriptor);
    lf.x = static_cast<float>(x);
    lf.y = static_cast<float>(y);
    lf.time_code = static_cast<uint32_t>(key_frame);
    result.fingerprints.push_back(lf);
    result.kept.push_back(true);
  }
  return result;
}

}  // namespace s3vcd::fp
