#include "fingerprint/harris.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "media/frame.h"
#include "media/synthetic.h"
#include "media/transforms.h"
#include "util/rng.h"

namespace s3vcd::fp {
namespace {

// A bright rectangle on dark background: corners are ideal Harris points.
media::Frame RectangleImage(int size, int lo, int hi) {
  media::Frame f(size, size, 20.0f);
  for (int y = lo; y <= hi; ++y) {
    for (int x = lo; x <= hi; ++x) {
      f.at(x, y) = 220.0f;
    }
  }
  return f;
}

TEST(HarrisTest, DetectsRectangleCorners) {
  media::Frame f = RectangleImage(64, 20, 44);
  HarrisOptions options;
  options.max_points = 8;
  options.min_distance = 6;
  const auto points = DetectInterestPoints(f, options);
  ASSERT_GE(points.size(), 4u);
  // Each true corner must have a detection within a few pixels.
  const double corners[4][2] = {{20, 20}, {20, 44}, {44, 20}, {44, 44}};
  for (const auto& corner : corners) {
    double best = 1e9;
    for (const auto& p : points) {
      const double d = std::hypot(p.x - corner[0], p.y - corner[1]);
      best = std::min(best, d);
    }
    EXPECT_LT(best, 4.0) << "missed corner (" << corner[0] << ","
                         << corner[1] << ")";
  }
}

TEST(HarrisTest, FlatImageYieldsNoPoints) {
  media::Frame f(32, 32, 127.0f);
  EXPECT_TRUE(DetectInterestPoints(f, HarrisOptions{}).empty());
}

TEST(HarrisTest, EdgesAreNotCorners) {
  // A pure vertical edge has rank-1 structure tensor: response <= 0 there.
  media::Frame f(64, 64, 20.0f);
  for (int y = 0; y < 64; ++y) {
    for (int x = 32; x < 64; ++x) {
      f.at(x, y) = 220.0f;
    }
  }
  HarrisOptions options;
  const auto points = DetectInterestPoints(f, options);
  for (const auto& p : points) {
    // Any detections must not sit on the straight part of the edge
    // (corners with the border are excluded by the border margin).
    EXPECT_FALSE(p.x > 28 && p.x < 36 && p.y > 16 && p.y < 48)
        << "edge point at (" << p.x << "," << p.y << ")";
  }
}

TEST(HarrisTest, RespectsMaxPointsAndMinDistance) {
  media::SyntheticVideoConfig config;
  config.width = 96;
  config.height = 96;
  config.num_frames = 1;
  config.seed = 13;
  const media::Frame frame =
      media::GenerateSyntheticVideo(config).frames[0];
  HarrisOptions options;
  options.max_points = 10;
  options.min_distance = 12;
  const auto points = DetectInterestPoints(frame, options);
  EXPECT_LE(points.size(), 10u);
  EXPECT_GE(points.size(), 3u) << "textured frame should produce points";
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      const double d =
          std::hypot(points[i].x - points[j].x, points[i].y - points[j].y);
      EXPECT_GE(d, options.min_distance);
    }
    // Sorted by decreasing response.
    if (i > 0) {
      EXPECT_LE(points[i].response, points[i - 1].response);
    }
  }
}

TEST(HarrisTest, PointsRespectBorderMargin) {
  media::SyntheticVideoConfig config;
  config.width = 64;
  config.height = 64;
  config.num_frames = 1;
  const media::Frame frame =
      media::GenerateSyntheticVideo(config).frames[0];
  HarrisOptions options;
  options.border = 10;
  for (const auto& p : DetectInterestPoints(frame, options)) {
    EXPECT_GE(p.x, 10);
    EXPECT_GE(p.y, 10);
    EXPECT_LT(p.x, 54);
    EXPECT_LT(p.y, 54);
  }
}

// Repeatability: the detector should re-find most points under a mild
// photometric transformation -- the property the whole CBCD scheme rests on.
TEST(HarrisTest, RepeatableUnderMildGamma) {
  media::SyntheticVideoConfig config;
  config.width = 128;
  config.height = 96;
  config.num_frames = 1;
  config.seed = 21;
  const media::Frame frame =
      media::GenerateSyntheticVideo(config).frames[0];
  Rng rng(4);
  const media::Frame distorted = media::ApplyTransformStep(
      frame, {media::TransformType::kGamma, 1.2}, &rng);
  HarrisOptions options;
  options.max_points = 15;
  const auto a = DetectInterestPoints(frame, options);
  const auto b = DetectInterestPoints(distorted, options);
  ASSERT_GE(a.size(), 5u);
  int repeated = 0;
  for (const auto& pa : a) {
    for (const auto& pb : b) {
      if (std::hypot(pa.x - pb.x, pa.y - pb.y) <= 2.0) {
        ++repeated;
        break;
      }
    }
  }
  EXPECT_GE(static_cast<double>(repeated) / a.size(), 0.6);
}

TEST(HarrisTest, PeakInTheLastPixelsSetsTheThreshold) {
  // 41 x 30 = 1230 pixels, 6 past the last multiple of 8. A bright bar on
  // the bottom row puts the strongest response in those 6 pixels (inside
  // the border, so not a point itself); two interior squares of different
  // contrast give one corner above the relative threshold of that peak and
  // one below it that would pass a threshold taken from the other pixels'
  // peak. The points must be the low-threshold points that reach the
  // threshold of the sequential std::max fold over the whole response.
  media::Frame f(41, 30, 0.0f);
  for (int y = 12; y < 18; ++y) {
    for (int x = 12; x < 18; ++x) {
      f.at(x, y) = 100.0f;
    }
    for (int x = 24; x < 30; ++x) {
      f.at(x, y) = 70.0f;
    }
  }
  for (int x = 37; x < 41; ++x) {
    f.at(x, 29) = 255.0f;
  }
  f.at(38, 28) = 255.0f;
  HarrisOptions options;
  options.relative_threshold = 0.0125;

  const media::Frame response = HarrisResponse(f, options);
  const std::vector<float>& r = response.pixels();
  const size_t tail = r.size() - r.size() % 8;
  ASSERT_LT(tail, r.size());
  float peak = 0;
  for (float v : r) {
    peak = std::max(peak, v);
  }
  float head_peak = 0;
  for (size_t i = 0; i < tail; ++i) {
    head_peak = std::max(head_peak, r[i]);
  }
  ASSERT_GT(peak, head_peak) << "the peak is not in the last pixels";
  const float threshold =
      static_cast<float>(options.relative_threshold) * peak;
  const float head_threshold =
      static_cast<float>(options.relative_threshold) * head_peak;

  HarrisOptions low = options;
  low.relative_threshold = 1e-4;
  std::vector<InterestPoint> expected;
  size_t between = 0;
  for (const InterestPoint& p : DetectInterestPoints(f, low)) {
    if (p.response >= threshold) {
      expected.push_back(p);
    } else {
      between += p.response >= head_threshold;
    }
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_GT(between, 0u) << "no point tells the two thresholds apart";

  const std::vector<InterestPoint> points = DetectInterestPoints(f, options);
  ASSERT_EQ(points.size(), expected.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].x, expected[i].x);
    EXPECT_EQ(points[i].y, expected[i].y);
    EXPECT_EQ(points[i].response, expected[i].response);
  }
}

TEST(HarrisResponseTest, CornerResponseExceedsEdgeResponse) {
  media::Frame f = RectangleImage(64, 20, 44);
  const media::Frame r = HarrisResponse(f, HarrisOptions{});
  const float corner = r.at(20, 20);
  const float edge = r.at(32, 20);   // mid-edge
  const float flat = r.at(10, 10);   // background
  EXPECT_GT(corner, edge);
  EXPECT_GT(corner, 0.0f);
  EXPECT_NEAR(flat, 0.0f, 1e-3f);
}

}  // namespace
}  // namespace s3vcd::fp
