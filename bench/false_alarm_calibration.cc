// Reproduces the paper's operating-point calibration (Section V-C): "this
// threshold is set so that in average less than 1 false alarm occurs per
// hour when the system is continuously monitoring a TV channel". We stream
// unrelated synthetic video against the reference index, record the nsim of
// every (spurious) vote, and report the false-alarm rate per hour as a
// function of the decision threshold, alongside the detection rate of
// genuinely transformed copies at the same thresholds.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "util/table.h"

namespace s3vcd::bench {
namespace {

int Main() {
  PrintHeader("false_alarm_calibration",
              "false alarms per monitored hour vs nsim threshold");
  const int kNumVideos = 10;
  const uint64_t kDbSize = Scaled(300000);
  const double kMonitorMinutes = 4.0 * ScaleFactor();

  Corpus corpus = BuildCorpus(kNumVideos, kDbSize, 12100);
  const core::GaussianDistortionModel model(15.0);
  Rng rng(667);

  cbcd::DetectorOptions options;
  options.query.filter.alpha = 0.85;
  // The paper's statistical query: no copy radius.
  options.query.refinement = core::RefinementMode::kAll;
  options.query.filter.depth = 16;
  options.nsim_threshold = 0;  // collect raw votes; threshold applied below
  const cbcd::CopyDetector detector(corpus.index.get(), &model, options);

  // Phase 1: monitor unrelated video, windowed like the TV monitor, and
  // collect every spurious vote's nsim.
  std::vector<int> spurious_nsim;
  const int kWindowFrames = 250;  // 10 s windows
  const int windows = static_cast<int>(kMonitorMinutes * 60.0 * 25.0 /
                                       kWindowFrames);
  double monitored_seconds = 0;
  for (int w = 0; w < windows; ++w) {
    const auto fps = corpus.extractor.Extract(
        media::GenerateSyntheticVideo(ClipConfig(770000 + w,
                                                 kWindowFrames)));
    monitored_seconds += kWindowFrames / 25.0;
    for (const auto& d : detector.DetectClip(fps)) {
      spurious_nsim.push_back(d.nsim);
    }
  }
  std::printf("monitored %.1f min of unrelated video: %zu spurious votes\n",
              monitored_seconds / 60.0, spurious_nsim.size());

  // Phase 2: detection rate of transformed copies at the same thresholds.
  struct CopyRun {
    uint32_t id;
    std::vector<cbcd::Detection> detections;
  };
  std::vector<CopyRun> copies;
  const int kCopies = static_cast<int>(Scaled(8));
  for (int c = 0; c < kCopies; ++c) {
    const uint32_t vid = static_cast<uint32_t>(c % kNumVideos);
    media::TransformChain chain = (c % 2 == 0)
                                      ? media::TransformChain::Noise(6.0)
                                      : media::TransformChain::Gamma(1.4);
    const auto fps =
        corpus.extractor.Extract(chain.Apply(corpus.videos[vid], &rng));
    copies.push_back({vid, detector.DetectClip(fps)});
  }

  Table table({"nsim_threshold", "false_alarms_per_hour",
               "copy_detection_rate_pct"});
  for (int threshold : {2, 5, 10, 20, 40, 80, 160}) {
    int alarms = 0;
    for (int nsim : spurious_nsim) {
      if (nsim >= threshold) {
        ++alarms;
      }
    }
    int detected = 0;
    for (const auto& run : copies) {
      for (const auto& d : run.detections) {
        if (d.id == run.id && d.nsim >= threshold &&
            std::abs(d.offset) <= 2.0) {
          ++detected;
          break;
        }
      }
    }
    table.AddRow()
        .Add(static_cast<int64_t>(threshold))
        .Add(alarms * 3600.0 / monitored_seconds, 4)
        .Add(100.0 * detected / copies.size(), 4);
  }
  table.Print("false_alarm_calibration");
  std::printf(
      "operating point: pick the smallest threshold with < 1 false alarm\n"
      "per hour (the paper's criterion) and read off the detection rate\n");
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main() { return s3vcd::bench::Main(); }
