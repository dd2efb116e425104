// Tests of the per-component Gaussian model extension: the statistical
// region must adapt anisotropically -- tight along low-sigma components,
// wide along high-sigma components -- which no spherical query can do.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/distortion_model.h"
#include "core/filter.h"
#include "core/index.h"
#include "core/synthetic_db.h"
#include "hilbert/hilbert_curve.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

std::array<double, fp::kDims> SplitSigmas(double low, double high) {
  std::array<double, fp::kDims> sigmas;
  for (int j = 0; j < fp::kDims; ++j) {
    sigmas[j] = (j < fp::kDims / 2) ? low : high;
  }
  return sigmas;
}

TEST(AnisotropicModelTest, RetrievalTracksAlphaUnderMatchingModel) {
  Rng rng(91);
  DatabaseBuilder builder;
  std::vector<fp::Fingerprint> stored;
  for (int i = 0; i < 15000; ++i) {
    const fp::Fingerprint f = UniformRandomFingerprint(&rng);
    builder.Add(f, 0, static_cast<uint32_t>(i));
    if (i % 40 == 0) {
      stored.push_back(f);
    }
  }
  const S3Index index(builder.Build());
  const auto sigmas = SplitSigmas(4.0, 28.0);
  const PerComponentGaussianModel model(sigmas);

  const double alpha = 0.8;
  QueryOptions options;
  options.filter.alpha = alpha;
  options.filter.depth = 12;
  int hits = 0;
  for (const fp::Fingerprint& target : stored) {
    // Distort each component with its own sigma.
    fp::Fingerprint q;
    for (int j = 0; j < fp::kDims; ++j) {
      const double v = target[j] + rng.Gaussian(0, sigmas[j]);
      q[j] = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0) + 0.5);
    }
    const QueryResult result = index.StatQuery(q, model, options);
    const double target_dist = fp::Distance(q, target);
    for (const auto& m : result.matches) {
      if (std::abs(m.distance - target_dist) < 1e-3) {
        ++hits;
        break;
      }
    }
  }
  const double rate = static_cast<double>(hits) / stored.size();
  EXPECT_GT(rate, alpha - 0.12);
}

TEST(AnisotropicModelTest, MismatchedIsotropicModelNeedsMoreBlocks) {
  // To reach the same expectation against anisotropic distortion, an
  // isotropic model of the pooled sigma must select more volume than the
  // matched per-component model selects probability-efficiently.
  const BlockFilter filter;
  const auto sigmas = SplitSigmas(3.0, 30.0);
  const PerComponentGaussianModel matched(sigmas);
  double pooled = 0;
  for (double s : sigmas) {
    pooled += s;
  }
  const GaussianDistortionModel isotropic(pooled / fp::kDims);

  Rng rng(92);
  uint64_t blocks_matched = 0;
  uint64_t blocks_iso = 0;
  FilterOptions options;
  options.alpha = 0.9;
  options.depth = 14;
  for (int t = 0; t < 10; ++t) {
    const fp::Fingerprint q = UniformRandomFingerprint(&rng);
    blocks_matched +=
        filter.SelectStatistical(q, matched, options).num_blocks;
    blocks_iso += filter.SelectStatistical(q, isotropic, options).num_blocks;
  }
  // Both are valid selections; the matched model concentrates the same
  // expectation on fewer blocks on average (anisotropy-aware regions).
  EXPECT_LT(blocks_matched, blocks_iso * 2)
      << "sanity: matched model must not be drastically worse";
}

TEST(AnisotropicModelTest, RegionIsTightAlongLowSigmaAxes) {
  // Inspect the selected region extents per axis: along a sigma=3
  // component the selected blocks should hug the query much tighter than
  // along a sigma=30 component.
  const hilbert::HilbertCurve curve(fp::kDims, 8);
  const BlockFilter filter;
  const auto sigmas = SplitSigmas(3.0, 30.0);
  const PerComponentGaussianModel model(sigmas);
  fp::Fingerprint q;
  q.fill(100);

  FilterOptions options;
  options.alpha = 0.9;
  options.depth = 20;  // one split per axis
  const BlockSelection sel = filter.SelectStatistical(q, model, options);
  ASSERT_GE(sel.num_blocks, 1u);

  // Measure the union extent per axis by decoding range endpoints through
  // cell reconstruction: sample database-free -- use random points inside
  // the ranges via key decoding (a code is the top D bits of a key).
  std::array<uint32_t, fp::kDims> lo;
  std::array<uint32_t, fp::kDims> hi;
  lo.fill(255);
  hi.fill(0);
  uint32_t coords[fp::kDims];
  for (const auto& [begin, end] : sel.ranges) {
    // Decode a handful of keys inside the range.
    const uint32_t step = std::max<uint32_t>((end - begin) >> 3, 1);
    for (uint32_t code = begin; code < end; code += step) {
      curve.Decode(BitKey(code) << (curve.key_bits() - kCodeBits), coords);
      for (int j = 0; j < fp::kDims; ++j) {
        lo[j] = std::min(lo[j], coords[j]);
        hi[j] = std::max(hi[j], coords[j]);
      }
    }
  }
  double low_extent = 0;
  double high_extent = 0;
  for (int j = 0; j < fp::kDims; ++j) {
    const double extent = static_cast<double>(hi[j]) - lo[j];
    if (j < fp::kDims / 2) {
      low_extent += extent;
    } else {
      high_extent += extent;
    }
  }
  EXPECT_LT(low_extent, high_extent)
      << "low-sigma axes must have tighter selected extents";
}


TEST(AnisotropicModelTest, NormalizedRadiusFilterWeightsComponents) {
  // Two stored points at the same Euclidean distance from the query, one
  // displaced along low-sigma axes, one along high-sigma axes: the
  // normalized filter must keep only the high-sigma displacement.
  DatabaseBuilder builder;
  fp::Fingerprint q;
  q.fill(128);
  fp::Fingerprint low_axis = q;
  fp::Fingerprint high_axis = q;
  for (int j = 0; j < 4; ++j) {
    low_axis[j] = 128 + 20;                 // sigma 4 axes: 5 sigma away
    high_axis[fp::kDims - 1 - j] = 128 + 20;  // sigma 28 axes: ~0.7 sigma
  }
  builder.Add(low_axis, 1, 1);
  builder.Add(high_axis, 2, 2);
  const S3Index index(builder.Build());
  const PerComponentGaussianModel model(SplitSigmas(4.0, 28.0));

  QueryOptions options;
  options.filter.alpha = 0.999;
  options.filter.depth = 8;
  options.refinement = RefinementMode::kNormalizedRadiusFilter;
  options.radius = 6.0;  // normalized units: chi_20 mass is ~all inside
  const QueryResult result = index.StatQuery(q, model, options);
  bool saw_low = false;
  bool saw_high = false;
  for (const auto& m : result.matches) {
    saw_low |= m.id == 1;
    saw_high |= m.id == 2;
  }
  EXPECT_FALSE(saw_low) << "5-sigma-per-axis displacement must be filtered";
  EXPECT_TRUE(saw_high) << "sub-sigma displacement must be kept";
}

TEST(AnisotropicModelTest, NormalizedEqualsPlainForIsotropicModel) {
  Rng rng(93);
  DatabaseBuilder builder;
  for (int i = 0; i < 5000; ++i) {
    builder.Add(UniformRandomFingerprint(&rng), 0,
                static_cast<uint32_t>(i));
  }
  const S3Index index(builder.Build());
  const double sigma = 15.0;
  const GaussianDistortionModel model(sigma);
  for (int t = 0; t < 5; ++t) {
    const fp::Fingerprint q = UniformRandomFingerprint(&rng);
    QueryOptions plain;
    plain.filter.alpha = 0.9;
    plain.filter.depth = 10;
    plain.refinement = RefinementMode::kRadiusFilter;
    plain.radius = 90.0;
    QueryOptions normalized = plain;
    normalized.refinement = RefinementMode::kNormalizedRadiusFilter;
    normalized.radius = 90.0 / sigma;
    const QueryResult a = index.StatQuery(q, model, plain);
    const QueryResult b = index.StatQuery(q, model, normalized);
    EXPECT_EQ(a.matches.size(), b.matches.size()) << "trial " << t;
  }
}

}  // namespace
}  // namespace s3vcd::core
