// Ablation of the voting stage variants: the paper's plain temporal vote
// (eq. 2), the spatial-coherence extension it proposes as future work
// (Section VI) and the IRLS continuous-offset refinement. Measured:
// detection rate on transformed copies, top spurious nsim on unrelated
// clips (the false-alarm margin), and the voting time per clip.

#include <cstdio>

#include "bench_common.h"
#include "util/table.h"
#include "util/timer.h"

namespace s3vcd::bench {
namespace {

int Main() {
  PrintHeader("ablation_voting",
              "voting variants: margin between copies and unrelated clips");
  const int kNumVideos = 10;
  const uint64_t kDbSize = Scaled(300000);
  const int kCopyClips = static_cast<int>(Scaled(10));
  const int kUnrelatedClips = static_cast<int>(Scaled(8));

  Corpus corpus = BuildCorpus(kNumVideos, kDbSize, 11100);
  const core::GaussianDistortionModel model(15.0);
  Rng rng(666);

  // Candidate sets: transformed copies and unrelated clips.
  struct Candidate {
    int expected_id;  // -1 for unrelated
    std::vector<fp::LocalFingerprint> fps;
  };
  std::vector<Candidate> candidates;
  for (int c = 0; c < kCopyClips; ++c) {
    const int vid = c % kNumVideos;
    media::TransformChain chain =
        (c % 3 == 0)   ? media::TransformChain::Gamma(1.3)
        : (c % 3 == 1) ? media::TransformChain::Noise(6.0)
                       : media::TransformChain::Contrast(1.4);
    candidates.push_back(
        {vid, corpus.extractor.Extract(chain.Apply(corpus.videos[vid],
                                                   &rng))});
  }
  for (int u = 0; u < kUnrelatedClips; ++u) {
    candidates.push_back(
        {-1, corpus.extractor.Extract(
                 media::GenerateSyntheticVideo(ClipConfig(880000 + u)))});
  }

  struct Variant {
    const char* name;
    cbcd::VoteOptions options;
  };
  std::vector<Variant> variants;
  {
    Variant plain{"plain_temporal", {}};
    variants.push_back(plain);
    Variant spatial{"plus_spatial", {}};
    spatial.options.use_spatial_coherence = true;
    variants.push_back(spatial);
    Variant irls{"plus_irls", {}};
    irls.options.refine_offset = true;
    variants.push_back(irls);
  }

  Table table({"variant", "copy_detect_rate_pct", "mean_copy_nsim",
               "max_spurious_nsim", "vote_ms_per_clip"});
  for (const Variant& variant : variants) {
    cbcd::DetectorOptions options;
    options.query.filter.alpha = 0.85;
    // The paper's statistical query: no copy radius.
    options.query.refinement = core::RefinementMode::kAll;
    options.query.filter.depth = 16;
    options.vote = variant.options;
    options.nsim_threshold = 0;  // examine raw votes
    const cbcd::CopyDetector detector(corpus.index.get(), &model, options);

    int detected = 0;
    double copy_nsim = 0;
    int max_spurious = 0;
    cbcd::DetectionStats stats;
    for (const Candidate& cand : candidates) {
      const auto detections = detector.DetectClip(cand.fps, &stats);
      if (cand.expected_id >= 0) {
        for (const auto& d : detections) {
          if (d.id == static_cast<uint32_t>(cand.expected_id) &&
              std::abs(d.offset) <= 2.0) {
            copy_nsim += d.nsim;
            ++detected;
            break;
          }
        }
      } else if (!detections.empty()) {
        max_spurious = std::max(max_spurious, detections[0].nsim);
      }
    }
    table.AddRow()
        .Add(variant.name)
        .Add(100.0 * detected / kCopyClips, 4)
        .Add(copy_nsim / std::max(1, detected), 4)
        .Add(static_cast<int64_t>(max_spurious))
        .Add(stats.vote_seconds * 1e3 / candidates.size(), 4);
  }
  table.Print("ablation_voting");
  std::printf(
      "expected shape: the spatial extension slashes the spurious nsim\n"
      "(bigger decision margin) at equal detection rate; IRLS refines the\n"
      "offset without changing the margin\n");
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main() { return s3vcd::bench::Main(); }
