// Ablation of the distortion model (the paper's Section VI suggestion that
// richer statistical modeling "should probably improve the efficiency and
// the precision"): the isotropic single-sigma model of Section IV-C versus
// the per-component Gaussian extension, evaluated on genuinely anisotropic
// distortion measured from a real transformation of the media stack.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "fingerprint/distortion.h"
#include "util/table.h"
#include "util/timer.h"

namespace s3vcd::bench {
namespace {

int Main() {
  PrintHeader("ablation_model",
              "isotropic sigma vs per-component sigma distortion model");
  const int kClips = static_cast<int>(Scaled(8));
  const uint64_t kDbSize = Scaled(200000);

  // Measure the true per-component distortion of a mixed transformation.
  media::TransformChain chain = media::TransformChain::Resize(0.85);
  chain.Then(media::TransformType::kNoise, 5.0);
  Rng rng(668);
  std::vector<fp::DistortionSample> samples;
  core::DatabaseBuilder builder;
  std::vector<fp::Fingerprint> pool;
  const fp::FingerprintExtractor extractor;
  for (int c = 0; c < kClips; ++c) {
    const media::VideoSequence video =
        media::GenerateSyntheticVideo(ClipConfig(13100 + c));
    const auto s = fp::CollectDistortionSamples(
        video, chain, fp::PerfectDetectorOptions{}, &rng);
    samples.insert(samples.end(), s.begin(), s.end());
    builder.AddVideo(static_cast<uint32_t>(c), extractor.Extract(video));
    for (const auto& sample : s) {
      pool.push_back(sample.reference);
    }
  }
  const fp::DistortionStats stats = fp::ComputeDistortionStats(samples);
  double sigma_min = 1e9;
  double sigma_max = 0;
  std::array<double, fp::kDims> sigmas{};
  for (int j = 0; j < fp::kDims; ++j) {
    sigmas[j] = std::max(1.0, stats.component_sigma[j]);
    sigma_min = std::min(sigma_min, sigmas[j]);
    sigma_max = std::max(sigma_max, sigmas[j]);
  }
  std::printf(
      "measured per-component sigma range: [%.1f, %.1f], mean %.1f "
      "(%zu samples)\n",
      sigma_min, sigma_max, stats.sigma, samples.size());

  if (builder.size() < kDbSize) {
    core::AppendDistractors(&builder, pool, kDbSize - builder.size(),
                            core::DistractorOptions{}, &rng);
  }
  const core::S3Index index(builder.Build());

  const core::GaussianDistortionModel isotropic(stats.sigma);
  const core::PerComponentGaussianModel per_component(sigmas);

  Table table({"model", "alpha_pct", "retrieval_rate_pct", "avg_ms",
               "avg_blocks", "avg_results"});
  for (double alpha : {0.7, 0.85, 0.95}) {
    struct ModelCase {
      const char* name;
      const core::DistortionModel* model;
    };
    const ModelCase cases[] = {{"isotropic", &isotropic},
                               {"per_component", &per_component}};
    for (const auto& c : cases) {
      core::QueryOptions options;
      options.filter.alpha = alpha;
      options.filter.depth = 14;
      int hits = 0;
      uint64_t blocks = 0;
      uint64_t results = 0;
      Stopwatch watch;
      for (const auto& s : samples) {
        const core::QueryResult r =
            index.StatQuery(s.distorted, *c.model, options);
        blocks += r.stats.blocks_selected;
        results += r.matches.size();
        const double target = fp::Distance(s.distorted, s.reference);
        for (const auto& m : r.matches) {
          if (std::abs(m.distance - target) < 1e-3) {
            ++hits;
            break;
          }
        }
      }
      table.AddRow()
          .Add(c.name)
          .Add(100 * alpha, 3)
          .Add(100.0 * hits / samples.size(), 4)
          .Add(watch.ElapsedMillis() / samples.size(), 4)
          .Add(static_cast<double>(blocks) / samples.size(), 4)
          .Add(static_cast<double>(results) / samples.size(), 4);
    }
  }
  table.Print("ablation_model");
  std::printf(
      "expected shape: at equal alpha the per-component model reaches the\n"
      "same or better retrieval while selecting its mass where the real\n"
      "distortion lives (fewer wasted results on stiff components)\n");
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main() { return s3vcd::bench::Main(); }
