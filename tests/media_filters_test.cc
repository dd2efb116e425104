#include "media/filters.h"

#include <array>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "fingerprint/descriptor.h"
#include "media/frame.h"

namespace s3vcd::media {
namespace {

TEST(GaussianKernelTest, NormalizedAndSymmetric) {
  for (double sigma : {0.5, 1.0, 2.0, 4.0}) {
    const auto k = GaussianKernel1D(sigma);
    EXPECT_EQ(k.size() % 2, 1u);
    const double sum = std::accumulate(k.begin(), k.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-6);
    for (size_t i = 0; i < k.size() / 2; ++i) {
      EXPECT_FLOAT_EQ(k[i], k[k.size() - 1 - i]);
    }
    // Peak at the center.
    EXPECT_GE(k[k.size() / 2], k[0]);
  }
}

TEST(GaussianBlurTest, PreservesConstantImage) {
  Frame f(16, 12, 100.0f);
  Frame blurred = GaussianBlur(f, 2.0);
  for (float v : blurred.pixels()) {
    EXPECT_NEAR(v, 100.0f, 1e-4);
  }
}

TEST(GaussianBlurTest, ReducesVariance) {
  Frame f(32, 32);
  // Checkerboard: maximal high-frequency content.
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      f.at(x, y) = ((x + y) % 2 == 0) ? 255.0f : 0.0f;
    }
  }
  Frame blurred = GaussianBlur(f, 1.5);
  double var_before = 0;
  double var_after = 0;
  for (size_t i = 0; i < f.size(); ++i) {
    var_before += std::pow(f.pixels()[i] - 127.5, 2);
    var_after += std::pow(blurred.pixels()[i] - 127.5, 2);
  }
  EXPECT_LT(var_after, 0.05 * var_before);
  // Mean preserved.
  EXPECT_NEAR(blurred.Mean(), f.Mean(), 0.5);
}

TEST(GaussianSmooth1DTest, SmoothsAndPreservesMeanOfConstant) {
  std::vector<double> constant(50, 3.0);
  auto smoothed = GaussianSmooth1D(constant, 2.0);
  for (double v : smoothed) {
    EXPECT_NEAR(v, 3.0, 1e-6);  // float kernel precision
  }
  // An impulse spreads out but keeps its total mass away from borders.
  std::vector<double> impulse(51, 0.0);
  impulse[25] = 1.0;
  auto spread = GaussianSmooth1D(impulse, 2.0);
  EXPECT_LT(spread[25], 1.0);
  EXPECT_GT(spread[25], spread[20]);
  EXPECT_NEAR(std::accumulate(spread.begin(), spread.end(), 0.0), 1.0, 1e-6);
}

// The local jet (Ix, Iy, Ixy, Ixx, Iyy) of `stack` at integer pixel (x, y).
std::array<double, 5> JetAt(const fp::DerivativeStack& stack, int x, int y) {
  std::array<double, 5> jet{};
  stack.SampleJet(x, y, jet.data());
  return jet;
}

TEST(DerivativesTest, LinearRampHasConstantFirstDerivatives) {
  Frame f(24, 24);
  for (int y = 0; y < 24; ++y) {
    for (int x = 0; x < 24; ++x) {
      f.at(x, y) = static_cast<float>(3 * x + 5 * y);
    }
  }
  const fp::DerivativeStack stack(f, 1.0);
  // Interior pixels (away from replicate-border effects).
  for (int y = 6; y < 18; ++y) {
    for (int x = 6; x < 18; ++x) {
      const std::array<double, 5> jet = JetAt(stack, x, y);
      EXPECT_NEAR(jet[0], 3.0, 0.05);  // Ix
      EXPECT_NEAR(jet[1], 5.0, 0.05);  // Iy
      EXPECT_NEAR(jet[2], 0.0, 0.05);  // Ixy
      EXPECT_NEAR(jet[3], 0.0, 0.05);  // Ixx
      EXPECT_NEAR(jet[4], 0.0, 0.05);  // Iyy
    }
  }
}

TEST(DerivativesTest, QuadraticHasExpectedSecondDerivatives) {
  Frame f(32, 32);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      // I = x^2 + 2 y^2 + x*y -> Ixx = 2, Iyy = 4, Ixy = 1.
      f.at(x, y) = static_cast<float>(x * x + 2 * y * y + x * y);
    }
  }
  // Small sigma so Gaussian smoothing barely biases the polynomial.
  const fp::DerivativeStack stack(f, 0.6);
  for (int y = 10; y < 22; ++y) {
    for (int x = 10; x < 22; ++x) {
      const std::array<double, 5> jet = JetAt(stack, x, y);
      EXPECT_NEAR(jet[3], 2.0, 0.2);  // Ixx
      EXPECT_NEAR(jet[4], 4.0, 0.2);  // Iyy
      EXPECT_NEAR(jet[2], 1.0, 0.2);  // Ixy
    }
  }
}

}  // namespace
}  // namespace s3vcd::media
