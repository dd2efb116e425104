// Reproduces Figure 9 of the paper: detection-rate abacuses of the full
// video CBCD system versus the strength of each transformation family, for
// several values of the query expectation alpha (DB size fixed), plus the
// table of average single-fingerprint search times per alpha. The paper's
// headline: lowering alpha from 95% to 70% leaves the detection rate
// almost invariant while the search gets ~4x faster -- trading quality for
// time is highly profitable when a voting strategy follows the search.

#include <cstdio>

#include "bench_common.h"
#include "util/math.h"
#include "util/table.h"
#include "util/timer.h"

namespace s3vcd::bench {
namespace {

int Main() {
  PrintHeader("fig9_alpha_abacus",
              "CBCD detection rate vs transformation strength per alpha");
  const int kNumVideos = 12;
  const int kClipsPerPoint = static_cast<int>(Scaled(6));
  const double kSigma = 20.0;
  const uint64_t kDbSize = Scaled(400000);
  const std::vector<double> kAlphas = {0.95, 0.90, 0.80, 0.70, 0.50};
  // p ~ log2 of the DB size, as the paper's tuner would pick.
  const int kDepth =
      std::max(12, Log2Exact(NextPowerOfTwo(kDbSize)) - 3);

  Corpus corpus = BuildCorpus(kNumVideos, kDbSize, 4100);
  const core::S3Index& index = *corpus.index;
  const core::GaussianDistortionModel model(kSigma);
  Rng rng(559);

  // Pre-extract the transformed candidates once; reuse across alphas.
  struct CandidateSet {
    std::string family;
    double parameter;
    std::vector<std::pair<uint32_t, std::vector<fp::LocalFingerprint>>>
        clips;
  };
  std::vector<CandidateSet> candidates;
  for (const auto& sweep : PaperTransformSweeps()) {
    for (double parameter : sweep.parameters) {
      CandidateSet set;
      set.family = sweep.family;
      set.parameter = parameter;
      const media::TransformChain chain = sweep.MakeChain(parameter);
      for (int c = 0; c < kClipsPerPoint; ++c) {
        const uint32_t vid = static_cast<uint32_t>(c % kNumVideos);
        const media::VideoSequence transformed =
            chain.Apply(corpus.videos[vid], &rng);
        set.clips.emplace_back(vid, corpus.extractor.Extract(transformed));
      }
      candidates.push_back(std::move(set));
    }
  }
  std::printf("prepared %zu (family, parameter) candidate sets\n",
              candidates.size());

  // Calibrate the decision threshold once (at the largest alpha) so every
  // alpha faces the same decision rule, as in the paper.
  int threshold = 0;
  {
    cbcd::DetectorOptions probe;
    probe.query.filter.alpha = kAlphas.front();
    // The paper's statistical query: no copy radius.
    probe.query.refinement = core::RefinementMode::kAll;
    probe.query.filter.depth = kDepth;
    probe.nsim_threshold = 0;
    const cbcd::CopyDetector detector(&index, &model, probe);
    for (int u = 0; u < 4; ++u) {
      const auto fps = corpus.extractor.Extract(
          media::GenerateSyntheticVideo(ClipConfig(986000 + u)));
      const auto detections = detector.DetectClip(fps);
      if (!detections.empty()) {
        threshold = std::max(threshold, detections[0].nsim);
      }
    }
    threshold += std::max(2, threshold / 4);
  }
  std::printf("calibrated nsim threshold = %d\n", threshold);

  Table rates({"family", "parameter", "alpha_pct", "detection_rate_pct"});
  Table times({"alpha_pct", "avg_search_ms_per_fingerprint"});
  for (double alpha : kAlphas) {
    cbcd::DetectorOptions options;
    options.query.filter.alpha = alpha;
    // The paper's statistical query: no copy radius.
    options.query.refinement = core::RefinementMode::kAll;
    options.query.filter.depth = kDepth;
    options.nsim_threshold = threshold;
    const cbcd::CopyDetector detector(&index, &model, options);

    cbcd::DetectionStats stats;
    for (const auto& set : candidates) {
      int detected = 0;
      for (const auto& [vid, fps] : set.clips) {
        const auto detections = detector.DetectClip(fps, &stats);
        if (ClipDetected(detections, vid, 0.0)) {
          ++detected;
        }
      }
      rates.AddRow()
          .Add(set.family)
          .Add(set.parameter, 4)
          .Add(100 * alpha, 3)
          .Add(100.0 * detected / set.clips.size(), 4);
    }
    times.AddRow()
        .Add(100 * alpha, 3)
        .Add(stats.queries == 0
                 ? 0.0
                 : stats.search_seconds * 1e3 / stats.queries,
             4);
  }
  rates.Print("fig9_rates");
  times.Print("fig9_times");
  std::printf(
      "paper: detection rate nearly invariant from alpha=95%% down to 70%%\n"
      "while the search is ~4x faster; it degrades only around 50%%\n");
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main() { return s3vcd::bench::Main(); }
