#include "fingerprint/harris.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace s3vcd::fp {

namespace {

// max(m, b) for an accumulator m that is never NaN (it starts at -inf): a
// NaN b is skipped. Written as SSE's maxps computes it, branch-free.
inline float FoldMax(float m, float b) { return b > m ? b : m; }

}  // namespace

HarrisDetector::HarrisDetector(const HarrisOptions& options)
    : options_(options),
      derivative_kernel_(media::GaussianKernel1D(options.derivative_sigma)),
      integration_kernel_(media::GaussianKernel1D(options.integration_sigma)) {}

const media::Frame& HarrisDetector::Response(const media::Frame& frame) {
  media::SeparableBlur(frame, derivative_kernel_, &blur_, &smoothed_);
  const int w = frame.width();
  const int h = frame.height();
  const float* s = smoothed_.pixels().data();

  // Central-difference gradients of the smoothed frame go straight into the
  // tensor-product images (Ix into ixx, Iy into iyy); only the two edge
  // columns clamp. The products are then formed in place.
  ixx_.Reshape(w, h);
  iyy_.Reshape(w, h);
  ixy_.Reshape(w, h);
  float* pxx = ixx_.pixels().data();
  float* pyy = iyy_.pixels().data();
  float* pxy = ixy_.pixels().data();
  for (int y = 0; y < h; ++y) {
    const size_t row = static_cast<size_t>(y) * w;
    const float* cur = s + row;
    const float* up = s + static_cast<size_t>(std::max(y - 1, 0)) * w;
    const float* down = s + static_cast<size_t>(std::min(y + 1, h - 1)) * w;
    float* gx = pxx + row;
    float* gy = pyy + row;
    gx[0] = 0.5f * (cur[std::min(1, w - 1)] - cur[0]);
    for (int x = 1; x < w - 1; ++x) {
      gx[x] = 0.5f * (cur[x + 1] - cur[x - 1]);
    }
    if (w > 1) {
      gx[w - 1] = 0.5f * (cur[w - 1] - cur[w - 2]);
    }
    for (int x = 0; x < w; ++x) {
      gy[x] = 0.5f * (down[x] - up[x]);
    }
  }
  for (size_t i = 0; i < ixx_.size(); ++i) {
    const float gx = pxx[i];
    const float gy = pyy[i];
    pxx[i] = gx * gx;
    pyy[i] = gy * gy;
    pxy[i] = gx * gy;
  }
  media::SeparableBlur(ixx_, integration_kernel_, &blur_, &sxx_);
  media::SeparableBlur(iyy_, integration_kernel_, &blur_, &syy_);
  media::SeparableBlur(ixy_, integration_kernel_, &blur_, &sxy_);

  response_.Reshape(w, h);
  const float k = static_cast<float>(options_.k);
  const float* pa = sxx_.pixels().data();
  const float* pb = syy_.pixels().data();
  const float* pc = sxy_.pixels().data();
  float* pr = response_.pixels().data();
  for (size_t i = 0; i < response_.size(); ++i) {
    const float det = pa[i] * pb[i] - pc[i] * pc[i];
    const float tr = pa[i] + pb[i];
    pr[i] = det - k * tr * tr;
  }
  return response_;
}

std::vector<InterestPoint> HarrisDetector::Detect(const media::Frame& frame) {
  const media::Frame& response = Response(frame);
  const int w = frame.width();
  const int h = frame.height();
  const float* r = response.pixels().data();

  // The peak as a sequential std::max fold computes it (NaN skipped, +0 for
  // no positive value), in eight independent lanes.
  constexpr int kPeakLanes = 8;
  float lanes[kPeakLanes] = {};
  const size_t n = response.size();
  size_t i = 0;
  for (; i + kPeakLanes <= n; i += kPeakLanes) {
    for (int j = 0; j < kPeakLanes; ++j) {
      lanes[j] = std::max(lanes[j], r[i + j]);
    }
  }
  float peak = 0;
  for (; i < n; ++i) {
    peak = std::max(peak, r[i]);
  }
  for (float lane : lanes) {
    peak = std::max(peak, lane);
  }
  if (peak <= 0) {
    return {};
  }
  const float threshold =
      static_cast<float>(options_.relative_threshold) * peak;

  // 3x3 non-max suppression inside the border: a pixel v >= threshold is a
  // candidate when it equals the maximum of its 3x3 neighbourhood, i.e.
  // when no neighbour is > v. The maximum is a 3-wide row max, then a
  // 3-high column max of those, both skipping NaN, which is never > v. A
  // NaN v fails v >= threshold, so the sort below only compares numbers.
  candidates_.clear();
  const int border = std::max(1, options_.border);
  if (w - border > border && h - border > border) {
    constexpr float kNone = -std::numeric_limits<float>::infinity();
    row_max_.resize(static_cast<size_t>(w) * h);
    float* m = row_max_.data();
    for (int y = border - 1; y <= h - border; ++y) {
      const float* in = r + static_cast<size_t>(y) * w;
      float* out = m + static_cast<size_t>(y) * w;
      for (int x = border; x < w - border; ++x) {
        out[x] = FoldMax(FoldMax(FoldMax(kNone, in[x - 1]), in[x]), in[x + 1]);
      }
    }
    for (int y = border; y < h - border; ++y) {
      const size_t row = static_cast<size_t>(y) * w;
      const float* up = m + row - w;
      const float* mid = m + row;
      const float* down = m + row + w;
      for (int x = border; x < w - border; ++x) {
        const float v = r[row + x];
        const float max =
            FoldMax(FoldMax(FoldMax(kNone, up[x]), mid[x]), down[x]);
        // One well-predicted branch: candidates are rare.
        if ((v >= threshold) & !(max > v)) {
          candidates_.push_back(
              {static_cast<float>(x), static_cast<float>(y), v});
        }
      }
    }
  }

  std::sort(candidates_.begin(), candidates_.end(),
            [](const InterestPoint& a, const InterestPoint& b) {
              return a.response > b.response;
            });

  // Greedy minimum-distance selection of the strongest points.
  std::vector<InterestPoint> out;
  const double min_d2 = options_.min_distance * options_.min_distance;
  for (const InterestPoint& cand : candidates_) {
    if (static_cast<int>(out.size()) >= options_.max_points) {
      break;
    }
    bool too_close = false;
    for (const InterestPoint& kept : out) {
      const double dx = cand.x - kept.x;
      const double dy = cand.y - kept.y;
      if (dx * dx + dy * dy < min_d2) {
        too_close = true;
        break;
      }
    }
    if (!too_close) {
      out.push_back(cand);
    }
  }
  return out;
}

media::Frame HarrisResponse(const media::Frame& frame,
                            const HarrisOptions& options) {
  return HarrisDetector(options).Response(frame);
}

std::vector<InterestPoint> DetectInterestPoints(const media::Frame& frame,
                                                const HarrisOptions& options) {
  return HarrisDetector(options).Detect(frame);
}

}  // namespace s3vcd::fp
