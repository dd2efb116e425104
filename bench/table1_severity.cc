// Reproduces Table I of the paper: retrieval rate R for transformations of
// decreasing severity sigma, with the statistical query tuned for the most
// severe transformation (alpha = 85%, sigma = sigma_max). The paper's
// claim: the rate for the reference transformation is ~alpha and increases
// as the severity decreases, so tuning for the worst case bounds all
// lighter transformations.

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "fingerprint/distortion.h"
#include "util/table.h"

namespace s3vcd::bench {
namespace {

struct Case {
  std::string label;
  media::TransformChain chain;
  double delta_pix;
};

int Main() {
  PrintHeader("table1_severity",
              "retrieval rate for transformations of decreasing severity");
  const int kClips = static_cast<int>(Scaled(8));
  const uint64_t kDbSize = Scaled(150000);
  const double kAlpha = 0.85;

  // The paper's Table I rows (wscale/wgamma/wnoise with delta_pix).
  // The 1-pixel imprecision of the paper's 352x288 frames corresponds to
  // ~0.3 pixels at our 96x80 frame size (see DESIGN.md substitutions).
  constexpr double kDpix = 0.3;
  std::vector<Case> cases;
  cases.push_back({"wscale=0.84 dpix~1(0.3 scaled)",
                   media::TransformChain::Resize(0.84), kDpix});
  cases.push_back({"wscale=1.26 dpix~1(0.3 scaled)",
                   media::TransformChain::Resize(1.26), kDpix});
  cases.push_back({"wscale=0.91 dpix~1(0.3 scaled)",
                   media::TransformChain::Resize(0.91), kDpix});
  cases.push_back({"wscale=0.98 dpix~1(0.3 scaled)",
                   media::TransformChain::Resize(0.98), kDpix});
  cases.push_back({"wgamma=2.08 dpix~1(0.3 scaled)",
                   media::TransformChain::Gamma(2.08), kDpix});
  cases.push_back({"wgamma=0.82 dpix~1(0.3 scaled)",
                   media::TransformChain::Gamma(0.82), kDpix});
  cases.push_back({"wnoise=10.0 dpix=0",
                   media::TransformChain::Noise(10.0), 0.0});

  // Shared clips and reference database.
  Rng rng(777);
  std::vector<media::VideoSequence> videos;
  core::DatabaseBuilder builder;
  std::vector<fp::Fingerprint> pool;
  const fp::FingerprintExtractor extractor;
  for (int c = 0; c < kClips; ++c) {
    videos.push_back(media::GenerateSyntheticVideo(ClipConfig(1400 + c)));
    const auto fps = extractor.Extract(videos.back());
    builder.AddVideo(static_cast<uint32_t>(c), fps);
    for (const auto& lf : fps) {
      pool.push_back(lf.descriptor);
    }
  }
  if (builder.size() < kDbSize) {
    core::AppendDistractors(&builder, pool, kDbSize - builder.size(),
                            core::DistractorOptions{}, &rng);
  }
  const core::S3Index index(builder.Build());

  // Pass 1: estimate the severity sigma of every transformation.
  struct Measured {
    std::string label;
    double sigma;
    std::vector<fp::DistortionSample> samples;
  };
  std::vector<Measured> measured;
  for (const Case& c : cases) {
    fp::PerfectDetectorOptions options;
    options.delta_pix = c.delta_pix;
    std::vector<fp::DistortionSample> samples;
    for (const auto& video : videos) {
      const auto s =
          fp::CollectDistortionSamples(video, c.chain, options, &rng);
      samples.insert(samples.end(), s.begin(), s.end());
    }
    const double sigma = fp::ComputeDistortionStats(samples).sigma;
    measured.push_back({c.label, sigma, std::move(samples)});
  }
  double sigma_max = 0;
  for (const auto& m : measured) {
    sigma_max = std::max(sigma_max, m.sigma);
  }
  std::printf("reference severity sigma_max = %.2f (paper: 23.43)\n",
              sigma_max);

  // Pass 2: retrieval rate with the model fixed at sigma_max, alpha = 85%.
  const core::GaussianDistortionModel model(sigma_max);
  core::QueryOptions query;
  query.filter.alpha = kAlpha;
  query.filter.depth = 14;
  Table table({"transformation", "sigma", "retrieval_rate_pct"});
  for (const auto& m : measured) {
    int retrieved = 0;
    for (const auto& s : m.samples) {
      const core::QueryResult result =
          index.StatQuery(s.distorted, model, query);
      const double target = fp::Distance(s.distorted, s.reference);
      for (const auto& match : result.matches) {
        if (std::abs(match.distance - target) < 1e-3) {
          ++retrieved;
          break;
        }
      }
    }
    const double rate =
        m.samples.empty() ? 0 : 100.0 * retrieved / m.samples.size();
    table.AddRow().Add(m.label).Add(m.sigma, 4).Add(rate, 4);
  }
  table.Print("table1");
  std::printf(
      "paper Table I: R=80.74%% for the most severe transformation and\n"
      "increasing R as sigma decreases (up to 99.79%%)\n");
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main() { return s3vcd::bench::Main(); }
