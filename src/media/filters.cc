#include "media/filters.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace s3vcd::media {

std::vector<float> GaussianKernel1D(double sigma) {
  S3VCD_CHECK(sigma > 0);
  const int radius = static_cast<int>(std::ceil(3.0 * sigma));
  std::vector<float> kernel(2 * radius + 1);
  double sum = 0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-0.5 * (i * i) / (sigma * sigma));
    kernel[i + radius] = static_cast<float>(v);
    sum += v;
  }
  for (float& v : kernel) {
    v = static_cast<float>(v / sum);
  }
  return kernel;
}

namespace {

// Separable convolution of a w x h image with replicate borders. Every
// output pixel sums 0 + w[0] v[0] + ... + w[2r] v[2r] in ascending tap order,
// as a per-pixel loop over Frame::at_clamped would; the loops run tap-outer,
// pixel-inner over flat rows so that they vectorize without reordering a sum.
Frame SeparableBlur(const Frame& in, const std::vector<float>& kernel) {
  const int w = in.width();
  const int h = in.height();
  const int taps = static_cast<int>(kernel.size());
  const int radius = taps / 2;
  const float* src = in.pixels().data();

  // Row pass: each row is padded with `radius` replicated edge values on
  // both sides, so tap k of pixel x reads padded[x + k] with no clamp.
  Frame rows(w, h);
  std::vector<float> padded(static_cast<size_t>(w) + 2 * radius);
  for (int y = 0; y < h; ++y) {
    const float* row = src + static_cast<size_t>(y) * w;
    std::fill(padded.begin(), padded.begin() + radius, row[0]);
    std::copy(row, row + w, padded.begin() + radius);
    std::fill(padded.begin() + radius + w, padded.end(), row[w - 1]);
    float* out = rows.pixels().data() + static_cast<size_t>(y) * w;
    for (int k = 0; k < taps; ++k) {
      const float weight = kernel[k];
      const float* tap = padded.data() + k;
      for (int x = 0; x < w; ++x) {
        out[x] += weight * tap[x];
      }
    }
  }

  // Column pass: the source row of each tap is clamped once per tap.
  Frame out(w, h);
  for (int y = 0; y < h; ++y) {
    float* dst = out.pixels().data() + static_cast<size_t>(y) * w;
    for (int k = 0; k < taps; ++k) {
      const float weight = kernel[k];
      const int sy = std::clamp(y + k - radius, 0, h - 1);
      const float* tap = rows.pixels().data() + static_cast<size_t>(sy) * w;
      for (int x = 0; x < w; ++x) {
        dst[x] += weight * tap[x];
      }
    }
  }
  return out;
}

}  // namespace

Frame GaussianBlur(const Frame& frame, double sigma) {
  return SeparableBlur(frame, GaussianKernel1D(sigma));
}

std::vector<double> GaussianSmooth1D(const std::vector<double>& signal,
                                     double sigma) {
  const std::vector<float> kernel = GaussianKernel1D(sigma);
  const int radius = static_cast<int>(kernel.size()) / 2;
  const int n = static_cast<int>(signal.size());
  std::vector<double> out(signal.size());
  for (int i = 0; i < n; ++i) {
    double acc = 0;
    for (int k = -radius; k <= radius; ++k) {
      const int j = std::clamp(i + k, 0, n - 1);
      acc += kernel[k + radius] * signal[j];
    }
    out[i] = acc;
  }
  return out;
}

}  // namespace s3vcd::media
