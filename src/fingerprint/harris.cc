#include "fingerprint/harris.h"

#include <algorithm>
#include <cmath>

#include "media/filters.h"

namespace s3vcd::fp {

media::Frame HarrisResponse(const media::Frame& frame,
                            const HarrisOptions& options) {
  const media::Frame smoothed =
      media::GaussianBlur(frame, options.derivative_sigma);
  const int w = frame.width();
  const int h = frame.height();
  const float* s = smoothed.pixels().data();

  // Central-difference gradients of the smoothed frame go straight into the
  // tensor-product images (Ix into ixx, Iy into iyy); only the two edge
  // columns clamp. The products are then formed in place.
  media::Frame ixx(w, h);
  media::Frame iyy(w, h);
  media::Frame ixy(w, h);
  float* pxx = ixx.pixels().data();
  float* pyy = iyy.pixels().data();
  float* pxy = ixy.pixels().data();
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
  for (size_t i = 0; i < ixx.size(); ++i) {
    const float gx = pxx[i];
    const float gy = pyy[i];
    pxx[i] = gx * gx;
    pyy[i] = gy * gy;
    pxy[i] = gx * gy;
  }
  const media::Frame sxx = media::GaussianBlur(ixx, options.integration_sigma);
  const media::Frame syy = media::GaussianBlur(iyy, options.integration_sigma);
  const media::Frame sxy = media::GaussianBlur(ixy, options.integration_sigma);

  media::Frame response(w, h);
  const float k = static_cast<float>(options.k);
  const float* pa = sxx.pixels().data();
  const float* pb = syy.pixels().data();
  const float* pc = sxy.pixels().data();
  float* pr = response.pixels().data();
  for (size_t i = 0; i < response.size(); ++i) {
    const float det = pa[i] * pb[i] - pc[i] * pc[i];
    const float tr = pa[i] + pb[i];
    pr[i] = det - k * tr * tr;
  }
  return response;
}

std::vector<InterestPoint> DetectInterestPoints(const media::Frame& frame,
                                                const HarrisOptions& options) {
  const media::Frame response = HarrisResponse(frame, options);
  const int w = frame.width();
  const int h = frame.height();

  float peak = 0;
  for (float v : response.pixels()) {
    peak = std::max(peak, v);
  }
  if (peak <= 0) {
    return {};
  }
  const float threshold = static_cast<float>(options.relative_threshold) * peak;

  // 3x3 non-max suppression inside the border.
  std::vector<InterestPoint> candidates;
  const int border = std::max(1, options.border);
  for (int y = border; y < h - border; ++y) {
    for (int x = border; x < w - border; ++x) {
      const float v = response.at(x, y);
      if (v < threshold) {
        continue;
      }
      bool is_max = true;
      for (int dy = -1; dy <= 1 && is_max; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) {
            continue;
          }
          if (response.at(x + dx, y + dy) > v) {
            is_max = false;
            break;
          }
        }
      }
      if (is_max) {
        candidates.push_back({static_cast<float>(x), static_cast<float>(y), v});
      }
    }
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const InterestPoint& a, const InterestPoint& b) {
              return a.response > b.response;
            });

  // Greedy minimum-distance selection of the strongest points.
  std::vector<InterestPoint> out;
  const double min_d2 = options.min_distance * options.min_distance;
  for (const InterestPoint& cand : candidates) {
    if (static_cast<int>(out.size()) >= options.max_points) {
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

}  // namespace s3vcd::fp
