// Reproduces Figure 3 of the paper: observed retrieval rate R of the S3
// technique versus the query expectation alpha, validating the independent
// zero-mean normal distortion model. The transformation is the paper's
// combination: resize (0.8) + gamma modification + noise addition + a
// simulated 1-pixel imprecision of the interest point detector. The paper
// validates the model with |R - alpha| <= 7%.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "fingerprint/distortion.h"
#include "util/table.h"

namespace s3vcd::bench {
namespace {

int Main() {
  PrintHeader("fig3_model_validation",
              "retrieval rate R vs statistical query expectation alpha");
  const int kClips = static_cast<int>(Scaled(10));
  const uint64_t kDbSize = Scaled(200000);

  media::TransformChain chain = media::TransformChain::Resize(0.8);
  chain.Then(media::TransformType::kGamma, 1.4);
  chain.Then(media::TransformType::kNoise, 6.0);
  fp::PerfectDetectorOptions options;
  // The paper's 1-pixel imprecision at 352x288; our frames are 96x80, so
  // the equivalent relative imprecision is ~0.3 pixels (see DESIGN.md).
  options.delta_pix = 0.3;
  Rng rng(333);

  // Collect (reference, distorted) pairs and build the reference database
  // from the same videos, padded with distractors.
  std::vector<fp::DistortionSample> samples;
  core::DatabaseBuilder builder;
  std::vector<fp::Fingerprint> pool;
  const fp::FingerprintExtractor extractor(options.extractor);
  for (int c = 0; c < kClips; ++c) {
    const media::VideoSequence video =
        media::GenerateSyntheticVideo(ClipConfig(900 + c));
    const auto clip_samples =
        fp::CollectDistortionSamples(video, chain, options, &rng);
    samples.insert(samples.end(), clip_samples.begin(), clip_samples.end());
    builder.AddVideo(static_cast<uint32_t>(c), extractor.Extract(video));
    for (const auto& s : clip_samples) {
      pool.push_back(s.reference);
    }
  }
  const fp::DistortionStats stats = fp::ComputeDistortionStats(samples);
  if (builder.size() < kDbSize) {
    core::AppendDistractors(&builder, pool, kDbSize - builder.size(),
                            core::DistractorOptions{}, &rng);
  }
  const core::S3Index index(builder.Build());
  const core::GaussianDistortionModel model(stats.sigma);
  std::printf("samples=%zu  estimated sigma=%.2f  db=%zu fingerprints\n",
              samples.size(), stats.sigma, index.database().size());

  Table table({"alpha_pct", "retrieval_rate_pct", "error_pct",
               "avg_time_ms", "avg_blocks"});
  for (double alpha : {0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95,
                       0.99}) {
    core::QueryOptions query;
    query.filter.alpha = alpha;
    query.filter.depth = 14;
    int retrieved = 0;
    double total_ms = 0;
    uint64_t total_blocks = 0;
    for (const auto& s : samples) {
      const core::QueryResult result =
          index.StatQuery(s.distorted, model, query);
      total_ms +=
          (result.stats.selection_ns + result.stats.refine_ns) * 1e-6;
      total_blocks += result.stats.blocks_selected;
      const double target = fp::Distance(s.distorted, s.reference);
      for (const auto& m : result.matches) {
        if (std::abs(m.distance - target) < 1e-3) {
          ++retrieved;
          break;
        }
      }
    }
    const double rate = 100.0 * retrieved / samples.size();
    table.AddRow()
        .Add(100 * alpha, 3)
        .Add(rate, 4)
        .Add(rate - 100 * alpha, 3)
        .Add(total_ms / samples.size(), 3)
        .Add(static_cast<double>(total_blocks) / samples.size(), 4);
  }
  table.Print("fig3");
  std::printf("paper: R tracks alpha with error <= 7%% (model validated)\n");
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main() { return s3vcd::bench::Main(); }
