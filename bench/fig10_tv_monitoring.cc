// Reproduces the TV monitoring experiment of Section V-D (Figure 10 shows
// example detections): a continuous synthetic "TV stream" containing
// embedded copies of referenced clips -- some transformed, some captured in
// degraded conditions -- is monitored by the full CBCD system. The paper
// reports robust detections at 2x real-time speed with a 20,000-hour
// reference DB; we report precision/recall over the embedded segments and
// the speed relative to the 25 fps real-time rate.

#include <cstdio>

#include "bench_common.h"
#include "util/math.h"
#include "util/table.h"
#include "util/timer.h"

namespace s3vcd::bench {
namespace {

struct StreamSegment {
  std::string label;
  int reference_id;  // -1 for unrelated filler
  int start_frame;
  int num_frames;
};

int Main() {
  PrintHeader("fig10_tv_monitoring",
              "continuous monitoring of a synthetic TV stream");
  const int kNumVideos = 8;
  const uint64_t kDbSize = Scaled(400000);
  Corpus corpus = BuildCorpus(kNumVideos, kDbSize, 5100);
  const core::GaussianDistortionModel model(15.0);
  Rng rng(560);

  // Assemble the stream: filler / copy / filler / transformed copies...
  media::VideoSequence stream;
  stream.fps = 25.0;
  std::vector<StreamSegment> segments;
  auto append = [&](const std::string& label, int reference_id,
                    const media::VideoSequence& clip) {
    segments.push_back({label, reference_id,
                        static_cast<int>(stream.frames.size()),
                        clip.num_frames()});
    stream.frames.insert(stream.frames.end(), clip.frames.begin(),
                         clip.frames.end());
  };
  auto filler = [&](uint64_t seed, int frames) {
    append("filler", -1,
           media::GenerateSyntheticVideo(ClipConfig(700000 + seed, frames)));
  };

  filler(1, 150);
  append("copy id0 (exact)", 0, corpus.videos[0]);
  filler(2, 120);
  {
    media::TransformChain chain = media::TransformChain::Contrast(1.5);
    append("copy id1 (contrast 1.5)", 1,
           chain.Apply(corpus.videos[1], &rng));
  }
  filler(3, 130);
  {
    // A black-and-white-style capture: gamma + noise (cf. Figure 10's
    // black-and-white candidate sequences).
    media::TransformChain chain = media::TransformChain::Gamma(1.3);
    chain.Then(media::TransformType::kNoise, 8.0);
    append("copy id2 (gamma 1.3 + noise 8)", 2,
           chain.Apply(corpus.videos[2], &rng));
  }
  filler(4, 120);
  {
    media::TransformChain chain = media::TransformChain::VerticalShift(10);
    append("copy id3 (shift 10%)", 3, chain.Apply(corpus.videos[3], &rng));
  }
  filler(5, 150);
  std::printf("stream: %d frames (%.1f s), %zu segments, DB %zu fps\n",
              stream.num_frames(), stream.duration_seconds(),
              segments.size(), corpus.index->database().size());

  // Monitor the stream.
  cbcd::DetectorOptions options;
  options.query.filter.alpha = 0.80;
  // The paper's statistical query: no copy radius.
  options.query.refinement = core::RefinementMode::kAll;
  options.query.filter.depth =
      std::max(12, Log2Exact(NextPowerOfTwo(corpus.index->database().size())) - 3);
  options.vote.use_spatial_coherence = true;  // short refs: see DESIGN.md
  options.nsim_threshold = 8;
  const cbcd::CopyDetector detector(corpus.index.get(), &model, options);
  cbcd::StreamMonitor::Options monitor_options;
  monitor_options.window_keyframes = 16;
  monitor_options.window_overlap = 6;
  cbcd::StreamMonitor monitor(&detector, monitor_options);

  Stopwatch watch;
  const auto stream_fps = corpus.extractor.Extract(stream);
  const double extract_seconds = watch.ElapsedSeconds();

  watch.Reset();
  struct Report {
    uint32_t id;
    double offset;
    int nsim;
    uint32_t around_tc;
  };
  std::vector<Report> reports;
  cbcd::DetectionStats stats;
  size_t i = 0;
  while (i < stream_fps.size()) {
    std::vector<fp::LocalFingerprint> keyframe;
    const uint32_t tc = stream_fps[i].time_code;
    while (i < stream_fps.size() && stream_fps[i].time_code == tc) {
      keyframe.push_back(stream_fps[i]);
      ++i;
    }
    for (const auto& d : monitor.PushKeyFrame(keyframe, &stats)) {
      reports.push_back({d.id, d.offset, d.nsim, tc});
    }
  }
  for (const auto& d : monitor.Flush(&stats)) {
    reports.push_back({d.id, d.offset, d.nsim,
                       static_cast<uint32_t>(stream.num_frames())});
  }
  const double search_seconds = watch.ElapsedSeconds();

  // Score the reports against the embedded segments.
  int true_positives = 0;
  int false_positives = 0;
  std::vector<bool> segment_found(segments.size(), false);
  for (const auto& r : reports) {
    bool matched = false;
    for (size_t s = 0; s < segments.size(); ++s) {
      const auto& seg = segments[s];
      if (seg.reference_id == static_cast<int>(r.id) &&
          std::abs(r.offset - seg.start_frame) <= 4.0) {
        segment_found[s] = true;
        matched = true;
      }
    }
    if (matched) {
      ++true_positives;
    } else {
      ++false_positives;
    }
  }
  int copies = 0;
  int copies_found = 0;
  Table table({"segment", "frames", "detected"});
  for (size_t s = 0; s < segments.size(); ++s) {
    const auto& seg = segments[s];
    if (seg.reference_id < 0) {
      continue;
    }
    ++copies;
    copies_found += segment_found[s] ? 1 : 0;
    table.AddRow()
        .Add(seg.label)
        .Add(static_cast<int64_t>(seg.num_frames))
        .Add(segment_found[s] ? "yes" : "NO");
  }
  table.Print("fig10_segments");

  const double stream_seconds = stream.duration_seconds();
  const double total_seconds = extract_seconds + search_seconds;
  std::printf("reports: %d true, %d false\n", true_positives,
              false_positives);
  std::printf("segment recall: %d/%d\n", copies_found, copies);
  std::printf(
      "processing: extract %.1fs + search/vote %.1fs = %.1fs for %.1fs of "
      "video => %.2fx real time\n",
      extract_seconds, search_seconds, total_seconds, stream_seconds,
      stream_seconds / total_seconds);
  std::printf("paper: continuous monitoring at ~2x real time\n");
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main() { return s3vcd::bench::Main(); }
