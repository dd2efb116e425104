#include "media/filters.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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

// Four float lanes, one SSE2 register at the x86-64 baseline.
typedef float Lanes4 __attribute__((vector_size(16)));

// Output pixels per block: four Lanes4 sums that stay in registers over
// every tap.
constexpr int kBlock = 16;

// One output line of a separable pass: out[x] = 0 + w[0] v[0] + ... +
// w[t-1] v[t-1], where v[k] = tap_src(k)[x], in ascending tap order with a
// multiply then an add per tap, exactly as a per-pixel loop over
// Frame::at_clamped would. Blocks of kBlock pixels run tap-inner; the last
// n % kBlock pixels take the same sums one at a time.
template <typename TapSource>
void ConvolveLine(const std::vector<float>& kernel, TapSource tap_src, int n,
                  float* out) {
  const int taps = static_cast<int>(kernel.size());
  int x = 0;
  for (; x + kBlock <= n; x += kBlock) {
    Lanes4 acc[kBlock / 4] = {};
    for (int k = 0; k < taps; ++k) {
      const float weight = kernel[k];
      const float* src = tap_src(k) + x;
      for (int j = 0; j < kBlock / 4; ++j) {
        Lanes4 v;
        std::memcpy(&v, src + 4 * j, sizeof(v));
        acc[j] += weight * v;
      }
    }
    for (int j = 0; j < kBlock / 4; ++j) {
      std::memcpy(out + x + 4 * j, &acc[j], sizeof(acc[j]));
    }
  }
  for (; x < n; ++x) {
    float acc = 0;
    for (int k = 0; k < taps; ++k) {
      acc += kernel[k] * tap_src(k)[x];
    }
    out[x] = acc;
  }
}

}  // namespace

void SeparableBlur(const Frame& in, const std::vector<float>& kernel,
                   BlurScratch* scratch, Frame* out) {
  S3VCD_CHECK(out != &in);
  const int w = in.width();
  const int h = in.height();
  const int radius = static_cast<int>(kernel.size()) / 2;
  scratch->rows.Reshape(w, h);
  out->Reshape(w, h);
  const float* src = in.pixels().data();
  float* rows = scratch->rows.pixels().data();

  // Row pass: each row is padded with `radius` replicated edge values on
  // both sides, so tap k of pixel x reads padded[x + k] with no clamp.
  std::vector<float>& padded = scratch->padded;
  padded.resize(static_cast<size_t>(w) + 2 * radius);
  for (int y = 0; y < h; ++y) {
    const float* row = src + static_cast<size_t>(y) * w;
    std::fill(padded.begin(), padded.begin() + radius, row[0]);
    std::copy(row, row + w, padded.begin() + radius);
    std::fill(padded.begin() + radius + w, padded.end(), row[w - 1]);
    ConvolveLine(
        kernel, [&padded](int k) { return padded.data() + k; }, w,
        rows + static_cast<size_t>(y) * w);
  }

  // Column pass: tap k of row y reads the clamped row y + k - radius.
  float* dst = out->pixels().data();
  for (int y = 0; y < h; ++y) {
    ConvolveLine(
        kernel,
        [rows, y, radius, w, h](int k) {
          return rows +
                 static_cast<size_t>(std::clamp(y + k - radius, 0, h - 1)) * w;
        },
        w, dst + static_cast<size_t>(y) * w);
  }
}

Frame GaussianBlur(const Frame& frame, double sigma) {
  BlurScratch scratch;
  Frame out;
  SeparableBlur(frame, GaussianKernel1D(sigma), &scratch, &out);
  return out;
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
