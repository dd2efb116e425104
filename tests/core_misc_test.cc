#include <gtest/gtest.h>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/synthetic_db.h"
#include "core/tuner.h"
#include "util/math.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

TEST(GaussianDistortionModelTest, MassMatchesGaussianCdf) {
  const GaussianDistortionModel model(10.0);
  // Full line mass is ~1.
  EXPECT_NEAR(model.ComponentMass(0, -1000, 1000, 128), 1.0, 1e-9);
  // Symmetric interval around the query.
  EXPECT_NEAR(model.ComponentMass(3, 118, 138, 128),
              GaussianMass(-10, 10, 0, 10), 1e-12);
  // Same for every component index.
  EXPECT_DOUBLE_EQ(model.ComponentMass(0, 0, 50, 30),
                   model.ComponentMass(19, 0, 50, 30));
}

TEST(PerComponentGaussianModelTest, UsesPerComponentSigmas) {
  std::array<double, fp::kDims> sigmas;
  for (int j = 0; j < fp::kDims; ++j) {
    sigmas[j] = 5.0 + j;
  }
  const PerComponentGaussianModel model(sigmas);
  EXPECT_NEAR(model.ComponentMass(0, 95, 105, 100),
              GaussianMass(-5, 5, 0, 5.0), 1e-12);
  EXPECT_NEAR(model.ComponentMass(19, 95, 105, 100),
              GaussianMass(-5, 5, 0, 24.0), 1e-12);
  EXPECT_GT(model.ComponentMass(0, 95, 105, 100),
            model.ComponentMass(19, 95, 105, 100))
      << "narrower component concentrates more mass";
}

TEST(SyntheticDbTest, DistortFingerprintRespectsSigma) {
  Rng rng(1);
  fp::Fingerprint base;
  base.fill(128);
  double sum_sq = 0;
  const int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    const fp::Fingerprint d = DistortFingerprint(base, 8.0, &rng);
    for (int j = 0; j < fp::kDims; ++j) {
      const double delta = static_cast<double>(d[j]) - 128.0;
      sum_sq += delta * delta;
    }
  }
  const double sd = std::sqrt(sum_sq / (kTrials * fp::kDims));
  EXPECT_NEAR(sd, 8.0, 0.5);
}

TEST(SyntheticDbTest, DistortClampsAtBorders) {
  Rng rng(2);
  fp::Fingerprint low;
  low.fill(0);
  fp::Fingerprint high;
  high.fill(255);
  for (int t = 0; t < 50; ++t) {
    const fp::Fingerprint a = DistortFingerprint(low, 30.0, &rng);
    const fp::Fingerprint b = DistortFingerprint(high, 30.0, &rng);
    for (int j = 0; j < fp::kDims; ++j) {
      EXPECT_GE(a[j], 0);
      EXPECT_LE(b[j], 255);
    }
  }
}

TEST(SyntheticDbTest, AppendDistractorsPopulatesBuilder) {
  Rng rng(3);
  std::vector<fp::Fingerprint> pool;
  for (int i = 0; i < 20; ++i) {
    pool.push_back(UniformRandomFingerprint(&rng));
  }
  DatabaseBuilder builder;
  DistractorOptions options;
  options.fingerprints_per_video = 100;
  AppendDistractors(&builder, pool, 1000, options, &rng);
  EXPECT_EQ(builder.size(), 1000u);
  FingerprintDatabase db = builder.Build();
  // Ten synthetic video ids starting at first_id.
  uint32_t min_id = ~0u;
  uint32_t max_id = 0;
  for (size_t i = 0; i < db.size(); ++i) {
    min_id = std::min(min_id, db.record(i).id);
    max_id = std::max(max_id, db.record(i).id);
    EXPECT_LT(db.record(i).time_code, options.max_time_code);
  }
  EXPECT_EQ(min_id, options.first_id);
  EXPECT_EQ(max_id, options.first_id + 9);
}

TEST(TunerTest, ReturnsACandidateWithFullProfile) {
  Rng rng(4);
  DatabaseBuilder builder;
  std::vector<fp::Fingerprint> sample;
  for (int i = 0; i < 20000; ++i) {
    const fp::Fingerprint f = UniformRandomFingerprint(&rng);
    builder.Add(f, 0, static_cast<uint32_t>(i));
    if (i % 500 == 0) {
      sample.push_back(f);
    }
  }
  S3Index index(builder.Build());
  const GaussianDistortionModel model(20.0);
  const std::vector<int> candidates = {6, 10, 14};
  const DepthTuningResult result =
      TuneDepth(index, model, sample, 0.8, candidates);
  EXPECT_EQ(result.profile.size(), candidates.size());
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                        result.best_depth) != candidates.end());
  for (const auto& [depth, ms] : result.profile) {
    EXPECT_GT(ms, 0.0);
  }
}

TEST(TunerTest, DefaultCandidatesScaleWithDbSize) {
  const auto small = DefaultDepthCandidates(1000);
  const auto large = DefaultDepthCandidates(1000000);
  ASSERT_FALSE(small.empty());
  ASSERT_FALSE(large.empty());
  EXPECT_LT(small.front(), large.front());
  for (int p : large) {
    EXPECT_LE(p, fp::kDims) << "the block filter serves depths up to D";
    EXPECT_GE(p, 1);
  }
  EXPECT_EQ(DefaultDepthCandidates(uint64_t{1} << 30).back(), fp::kDims);
}

}  // namespace
}  // namespace s3vcd::core
