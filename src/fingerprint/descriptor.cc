#include "fingerprint/descriptor.h"

#include <algorithm>
#include <cmath>

#include "media/filters.h"

namespace s3vcd::fp {

namespace {

// The five central differences (Ix, Iy, Ixy, Ixx, Iyy) of the smoothed frame
// `s` at pixel (x, y), which is first clamped into the frame; its neighbours
// replicate the border.
void JetAtPixel(const media::Frame& s, int x, int y, float* d5) {
  x = std::clamp(x, 0, s.width() - 1);
  y = std::clamp(y, 0, s.height() - 1);
  const float c = s.at(x, y);
  const float xm = s.at_clamped(x - 1, y);
  const float xp = s.at_clamped(x + 1, y);
  const float ym = s.at_clamped(x, y - 1);
  const float yp = s.at_clamped(x, y + 1);
  d5[0] = 0.5f * (xp - xm);
  d5[1] = 0.5f * (yp - ym);
  d5[2] = 0.25f * (s.at_clamped(x + 1, y + 1) - s.at_clamped(x - 1, y + 1) -
                   s.at_clamped(x + 1, y - 1) + s.at_clamped(x - 1, y - 1));
  d5[3] = xp - 2 * c + xm;
  d5[4] = yp - 2 * c + ym;
}

}  // namespace

DerivativeStack::DerivativeStack(const media::Frame& frame, double sigma)
    : smoothed_(media::GaussianBlur(frame, sigma)) {}

void DerivativeStack::SampleJet(double x, double y, double* jet5) const {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const double fx = x - x0;
  const double fy = y - y0;
  float d00[kSubDims];
  float d10[kSubDims];
  float d01[kSubDims];
  float d11[kSubDims];
  JetAtPixel(smoothed_, x0, y0, d00);
  JetAtPixel(smoothed_, x0 + 1, y0, d10);
  JetAtPixel(smoothed_, x0, y0 + 1, d01);
  JetAtPixel(smoothed_, x0 + 1, y0 + 1, d11);
  for (int i = 0; i < kSubDims; ++i) {
    const double top = (1 - fx) * d00[i] + fx * d10[i];
    const double bottom = (1 - fx) * d01[i] + fx * d11[i];
    jet5[i] = static_cast<float>((1 - fy) * top + fy * bottom);
  }
}

std::vector<SupportPosition> SupportPositions(double x, double y,
                                              const DescriptorOptions& opt) {
  const double d = opt.spatial_offset;
  const int dt = opt.temporal_offset;
  return {
      {x - d, y - d, -dt},
      {x + d, y + d, -dt},
      {x + d, y - d, +dt},
      {x - d, y + d, +dt},
  };
}

Fingerprint ComputeDescriptor(const DerivativeStack& before,
                              const DerivativeStack& after, double x,
                              double y, const DescriptorOptions& options) {
  Fingerprint fp;
  const auto positions = SupportPositions(x, y, options);
  constexpr double kDegenerateNorm = 1e-6;
  for (int i = 0; i < kNumPositions; ++i) {
    const SupportPosition& pos = positions[i];
    double jet[kSubDims];
    const DerivativeStack& stack = pos.frame_offset < 0 ? before : after;
    stack.SampleJet(pos.x, pos.y, jet);
    double norm_sq = 0;
    for (double v : jet) {
      norm_sq += v * v;
    }
    const double norm = std::sqrt(norm_sq);
    for (int j = 0; j < kSubDims; ++j) {
      const double normalized = norm > kDegenerateNorm ? jet[j] / norm : 0.0;
      fp[i * kSubDims + j] = QuantizeComponent(normalized);
    }
  }
  return fp;
}

}  // namespace s3vcd::fp
