// Bit-for-bit parity of the extraction kernels against their reference
// implementations: per-pixel loops over Frame::at_clamped that materialize
// every derivative image. The library computes the same sums in the same
// order with flat, vectorizable loops; these tests pin that no output bit
// moves, from the blurred pixels up to the extracted fingerprints.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fingerprint/descriptor.h"
#include "fingerprint/extractor.h"
#include "fingerprint/harris.h"
#include "fingerprint/keyframe.h"
#include "media/filters.h"
#include "media/frame.h"
#include "media/synthetic.h"
#include "util/rng.h"

namespace s3vcd::fp {
namespace {

using media::Frame;

// ---------------------------------------------------------------------------
// Reference implementations.

Frame OracleConvolveRows(const Frame& in, const std::vector<float>& kernel) {
  const int radius = static_cast<int>(kernel.size()) / 2;
  Frame out(in.width(), in.height());
  for (int y = 0; y < in.height(); ++y) {
    for (int x = 0; x < in.width(); ++x) {
      float acc = 0;
      for (int k = -radius; k <= radius; ++k) {
        acc += kernel[k + radius] * in.at_clamped(x + k, y);
      }
      out.at(x, y) = acc;
    }
  }
  return out;
}

Frame OracleConvolveCols(const Frame& in, const std::vector<float>& kernel) {
  const int radius = static_cast<int>(kernel.size()) / 2;
  Frame out(in.width(), in.height());
  for (int y = 0; y < in.height(); ++y) {
    for (int x = 0; x < in.width(); ++x) {
      float acc = 0;
      for (int k = -radius; k <= radius; ++k) {
        acc += kernel[k + radius] * in.at_clamped(x, y + k);
      }
      out.at(x, y) = acc;
    }
  }
  return out;
}

Frame OracleGaussianBlur(const Frame& frame, double sigma) {
  const std::vector<float> kernel = media::GaussianKernel1D(sigma);
  return OracleConvolveCols(OracleConvolveRows(frame, kernel), kernel);
}

struct OracleDerivativeImages {
  Frame ix;
  Frame iy;
  Frame ixy;
  Frame ixx;
  Frame iyy;
};

OracleDerivativeImages OracleComputeDerivatives(const Frame& frame,
                                                double sigma) {
  const Frame smoothed = OracleGaussianBlur(frame, sigma);
  const int w = frame.width();
  const int h = frame.height();
  OracleDerivativeImages d{Frame(w, h), Frame(w, h), Frame(w, h),
                           Frame(w, h), Frame(w, h)};
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const float c = smoothed.at_clamped(x, y);
      const float xm = smoothed.at_clamped(x - 1, y);
      const float xp = smoothed.at_clamped(x + 1, y);
      const float ym = smoothed.at_clamped(x, y - 1);
      const float yp = smoothed.at_clamped(x, y + 1);
      d.ix.at(x, y) = 0.5f * (xp - xm);
      d.iy.at(x, y) = 0.5f * (yp - ym);
      d.ixx.at(x, y) = xp - 2 * c + xm;
      d.iyy.at(x, y) = yp - 2 * c + ym;
      d.ixy.at(x, y) = 0.25f * (smoothed.at_clamped(x + 1, y + 1) -
                                smoothed.at_clamped(x - 1, y + 1) -
                                smoothed.at_clamped(x + 1, y - 1) +
                                smoothed.at_clamped(x - 1, y - 1));
    }
  }
  return d;
}

void OracleComputeFirstDerivatives(const Frame& smoothed, Frame* ix,
                                   Frame* iy) {
  const int w = smoothed.width();
  const int h = smoothed.height();
  *ix = Frame(w, h);
  *iy = Frame(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      ix->at(x, y) = 0.5f * (smoothed.at_clamped(x + 1, y) -
                             smoothed.at_clamped(x - 1, y));
      iy->at(x, y) = 0.5f * (smoothed.at_clamped(x, y + 1) -
                             smoothed.at_clamped(x, y - 1));
    }
  }
}

Frame OracleHarrisResponse(const Frame& frame, const HarrisOptions& options) {
  const Frame smoothed = OracleGaussianBlur(frame, options.derivative_sigma);
  Frame ix;
  Frame iy;
  OracleComputeFirstDerivatives(smoothed, &ix, &iy);

  const int w = frame.width();
  const int h = frame.height();
  Frame ixx(w, h);
  Frame iyy(w, h);
  Frame ixy(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const float gx = ix.at(x, y);
      const float gy = iy.at(x, y);
      ixx.at(x, y) = gx * gx;
      iyy.at(x, y) = gy * gy;
      ixy.at(x, y) = gx * gy;
    }
  }
  const Frame sxx = OracleGaussianBlur(ixx, options.integration_sigma);
  const Frame syy = OracleGaussianBlur(iyy, options.integration_sigma);
  const Frame sxy = OracleGaussianBlur(ixy, options.integration_sigma);

  Frame response(w, h);
  const float k = static_cast<float>(options.k);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const float a = sxx.at(x, y);
      const float b = syy.at(x, y);
      const float c = sxy.at(x, y);
      const float det = a * b - c * c;
      const float tr = a + b;
      response.at(x, y) = det - k * tr * tr;
    }
  }
  return response;
}

float OracleBilinearSample(const Frame& frame, double x, double y) {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const double fx = x - x0;
  const double fy = y - y0;
  const double top = (1 - fx) * frame.at_clamped(x0, y0) +
                     fx * frame.at_clamped(x0 + 1, y0);
  const double bottom = (1 - fx) * frame.at_clamped(x0, y0 + 1) +
                        fx * frame.at_clamped(x0 + 1, y0 + 1);
  return static_cast<float>((1 - fy) * top + fy * bottom);
}

// The full-image derivative stack: five derivative images, each sampled
// bilinearly.
class OracleDerivativeStack {
 public:
  OracleDerivativeStack(const Frame& frame, double sigma)
      : d_(OracleComputeDerivatives(frame, sigma)) {}

  void SampleJet(double x, double y, double* jet5) const {
    jet5[0] = OracleBilinearSample(d_.ix, x, y);
    jet5[1] = OracleBilinearSample(d_.iy, x, y);
    jet5[2] = OracleBilinearSample(d_.ixy, x, y);
    jet5[3] = OracleBilinearSample(d_.ixx, x, y);
    jet5[4] = OracleBilinearSample(d_.iyy, x, y);
  }

  const OracleDerivativeImages& images() const { return d_; }

 private:
  OracleDerivativeImages d_;
};

std::vector<InterestPoint> OracleDetectInterestPoints(
    const Frame& frame, const HarrisOptions& options) {
  const Frame response = OracleHarrisResponse(frame, options);
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
  std::vector<InterestPoint> candidates;
  const int border = std::max(1, options.border);
  for (int y = border; y < h - border; ++y) {
    for (int x = border; x < w - border; ++x) {
      const float v = response.at(x, y);
      if (!(v >= threshold)) {  // also drops a NaN response
        continue;
      }
      bool is_max = true;
      for (int dy = -1; dy <= 1 && is_max; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if ((dx != 0 || dy != 0) && response.at(x + dx, y + dy) > v) {
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

Fingerprint OracleComputeDescriptor(const OracleDerivativeStack& before,
                                    const OracleDerivativeStack& after,
                                    double x, double y,
                                    const DescriptorOptions& options) {
  Fingerprint fp;
  const auto positions = SupportPositions(x, y, options);
  constexpr double kDegenerateNorm = 1e-6;
  for (int i = 0; i < kNumPositions; ++i) {
    const SupportPosition& pos = positions[i];
    double jet[kSubDims];
    (pos.frame_offset < 0 ? before : after).SampleJet(pos.x, pos.y, jet);
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

std::vector<LocalFingerprint> OracleExtract(const media::VideoSequence& video,
                                            const ExtractorOptions& options) {
  std::vector<LocalFingerprint> out;
  const int n = video.num_frames();
  const int dt = options.descriptor.temporal_offset;
  for (int t : DetectKeyFrames(video, options.keyframe)) {
    const OracleDerivativeStack before(
        video.frames[std::clamp(t - dt, 0, n - 1)],
        options.descriptor.derivative_sigma);
    const OracleDerivativeStack after(
        video.frames[std::clamp(t + dt, 0, n - 1)],
        options.descriptor.derivative_sigma);
    for (const InterestPoint& p :
         OracleDetectInterestPoints(video.frames[t], options.harris)) {
      LocalFingerprint lf;
      lf.descriptor =
          OracleComputeDescriptor(before, after, p.x, p.y, options.descriptor);
      lf.x = p.x;
      lf.y = p.y;
      lf.time_code = static_cast<uint32_t>(t);
      out.push_back(lf);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Inputs.

// Frame sizes: the pipeline's own, larger, odd, smaller than the kernel
// radius in one or both dimensions, and a single pixel.
const std::pair<int, int> kSizes[] = {{96, 80}, {176, 144}, {97, 81},
                                      {13, 11}, {7, 5},     {3, 40},
                                      {2, 9},   {1, 1}};

// Uniform pixels in [-64, 320): negative and over-range values included.
Frame RandomFrame(int w, int h, Rng* rng) {
  Frame f(w, h);
  for (float& v : f.pixels()) {
    v = static_cast<float>(rng->Uniform(-64.0, 320.0));
  }
  return f;
}

// Each size as a random frame and as an all-zero frame.
std::vector<Frame> TestFrames(uint64_t seed) {
  Rng rng(seed);
  std::vector<Frame> frames;
  for (const auto& [w, h] : kSizes) {
    frames.push_back(RandomFrame(w, h, &rng));
    frames.push_back(Frame(w, h));
  }
  return frames;
}

bool SameBits(const Frame& a, const Frame& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.pixels().data(), b.pixels().data(),
                     a.size() * sizeof(float)) == 0;
}

std::string Describe(const Frame& f) {
  return std::to_string(f.width()) + "x" + std::to_string(f.height());
}

// ---------------------------------------------------------------------------
// Tests.

TEST(ExtractionParityTest, BlurMatchesOracleBitForBit) {
  for (const Frame& frame : TestFrames(1)) {
    for (double sigma : {0.5, 1.0, 1.5, 2.0, 3.5}) {
      EXPECT_TRUE(SameBits(media::GaussianBlur(frame, sigma),
                           OracleGaussianBlur(frame, sigma)))
          << Describe(frame) << " sigma " << sigma;
    }
  }
}

TEST(ExtractionParityTest, HarrisResponseMatchesOracleBitForBit) {
  HarrisOptions wide;
  wide.derivative_sigma = 1.5;
  wide.integration_sigma = 3.0;
  wide.k = 0.04;
  HarrisOptions narrow;
  narrow.derivative_sigma = 0.7;
  narrow.integration_sigma = 1.0;
  for (const Frame& frame : TestFrames(2)) {
    for (const HarrisOptions& options : {HarrisOptions{}, wide, narrow}) {
      EXPECT_TRUE(SameBits(HarrisResponse(frame, options),
                           OracleHarrisResponse(frame, options)))
          << Describe(frame) << " sigma_d " << options.derivative_sigma;
    }
  }
}

// Frames built to tie: a constant frame; periodic checkerboards, whose
// responses repeat exactly with the period, so that equal values sit at
// many sites and in 3x3 plateaus; frames at and below 2 * border + 1 on a
// side; and frames whose response holds NaN or infinity around one pixel.
std::vector<Frame> TieFrames() {
  std::vector<Frame> frames;
  frames.push_back(Frame(96, 80, 100.0f));
  for (int cell : {1, 2, 3, 5, 8}) {
    Frame f(96, 80);
    for (int y = 0; y < f.height(); ++y) {
      for (int x = 0; x < f.width(); ++x) {
        f.at(x, y) = ((x / cell + y / cell) % 2) != 0 ? 255.0f : 0.0f;
      }
    }
    frames.push_back(f);
  }
  Rng rng(7);
  for (const auto& [w, h] : {std::pair{17, 17}, {16, 40}, {40, 16}}) {
    frames.push_back(RandomFrame(w, h, &rng));
  }
  for (float odd : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    Frame f = RandomFrame(96, 80, &rng);
    f.at(40, 30) = odd;
    frames.push_back(f);
  }
  return frames;
}

bool SamePoints(const std::vector<InterestPoint>& a,
                const std::vector<InterestPoint>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

TEST(ExtractionParityTest, DetectInterestPointsMatchesOracleBitForBit) {
  HarrisOptions wide;
  wide.derivative_sigma = 1.5;
  wide.integration_sigma = 3.0;
  wide.k = 0.04;
  HarrisOptions narrow;
  narrow.derivative_sigma = 0.7;
  narrow.integration_sigma = 1.0;
  std::vector<Frame> frames = TestFrames(5);
  for (Frame& f : TieFrames()) {
    frames.push_back(std::move(f));
  }
  size_t points = 0;
  size_t tied = 0;  // selected points whose response equals the previous one
  size_t non_finite_frame_points = 0;
  for (const HarrisOptions& options : {HarrisOptions{}, wide, narrow}) {
    // One detector over every frame, so its buffers shrink and grow.
    HarrisDetector detector(options);
    for (const Frame& frame : frames) {
      const std::vector<InterestPoint> want =
          OracleDetectInterestPoints(frame, options);
      const std::vector<InterestPoint> got =
          DetectInterestPoints(frame, options);
      EXPECT_TRUE(SamePoints(got, want))
          << Describe(frame) << " sigma_d " << options.derivative_sigma;
      EXPECT_TRUE(SamePoints(detector.Detect(frame), want))
          << Describe(frame) << " sigma_d " << options.derivative_sigma
          << " (reused detector)";
      // A NaN or infinite pixel spreads non-finite responses around it;
      // none is returned, and the finite points elsewhere still are.
      const bool finite_frame =
          std::all_of(frame.pixels().begin(), frame.pixels().end(),
                      [](float v) { return std::isfinite(v); });
      for (const InterestPoint& p : got) {
        EXPECT_TRUE(std::isfinite(p.response))
            << Describe(frame) << " (" << p.x << ", " << p.y << ") "
            << p.response;
      }
      non_finite_frame_points += finite_frame ? 0 : got.size();
      points += want.size();
      for (size_t i = 1; i < want.size(); ++i) {
        tied += want[i].response == want[i - 1].response;
      }
    }
  }
  EXPECT_GT(points, 0u);
  EXPECT_GT(tied, 0u) << "no frame produced equal responses";
  EXPECT_GT(non_finite_frame_points, 0u);
}

TEST(ExtractionParityTest, SampleJetMatchesOracleBitForBit) {
  Rng rng(3);
  for (const Frame& frame : TestFrames(4)) {
    const int w = frame.width();
    const int h = frame.height();
    for (double sigma : {1.0, 1.5}) {
      const DerivativeStack stack(frame, sigma);
      const OracleDerivativeStack oracle(frame, sigma);
      std::vector<std::pair<double, double>> positions;
      // Every integer and half-integer position, three pixels past each
      // border, then random continuous ones over the same range.
      for (double y = -3; y <= h + 3; y += 0.5) {
        for (double x = -3; x <= w + 3; x += 0.5) {
          positions.emplace_back(x, y);
        }
      }
      for (int i = 0; i < 2000; ++i) {
        positions.emplace_back(rng.Uniform(-3, w + 3), rng.Uniform(-3, h + 3));
      }
      int mismatches = 0;
      for (const auto& [x, y] : positions) {
        double got[kSubDims];
        double want[kSubDims];
        stack.SampleJet(x, y, got);
        oracle.SampleJet(x, y, want);
        if (std::memcmp(got, want, sizeof(got)) != 0 && ++mismatches <= 3) {
          ADD_FAILURE() << Describe(frame) << " sigma " << sigma
                        << " jet differs at (" << x << ", " << y << ")";
        }
      }
      EXPECT_EQ(mismatches, 0) << Describe(frame) << " sigma " << sigma;
    }
  }
}

// The Harris oracle's gradients are the first two images of the descriptor
// oracle's derivative stack.
TEST(ExtractionParityTest, OracleFirstDerivativesMatchFullDerivatives) {
  Frame f(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      f.at(x, y) = static_cast<float>((x * 7 + y * 13) % 29);
    }
  }
  const double sigma = 1.2;
  const OracleDerivativeStack stack(f, sigma);
  Frame ix;
  Frame iy;
  OracleComputeFirstDerivatives(OracleGaussianBlur(f, sigma), &ix, &iy);
  EXPECT_TRUE(SameBits(ix, stack.images().ix));
  EXPECT_TRUE(SameBits(iy, stack.images().iy));
}

TEST(ExtractionParityTest, ExtractMatchesOracle) {
  const FingerprintExtractor extractor;
  for (uint64_t seed : {11, 12, 13}) {
    media::SyntheticVideoConfig config;
    config.width = 96;
    config.height = 80;
    config.num_frames = 120;
    config.seed = seed;
    const media::VideoSequence video = media::GenerateSyntheticVideo(config);
    const std::vector<LocalFingerprint> got = extractor.Extract(video);
    const std::vector<LocalFingerprint> want =
        OracleExtract(video, extractor.options());
    ASSERT_FALSE(want.empty()) << "seed " << seed;
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].descriptor, want[i].descriptor)
          << "seed " << seed << " fingerprint " << i;
      EXPECT_EQ(std::memcmp(&got[i].x, &want[i].x, sizeof(float)), 0);
      EXPECT_EQ(std::memcmp(&got[i].y, &want[i].y, sizeof(float)), 0);
      EXPECT_EQ(got[i].time_code, want[i].time_code);
    }
  }
}

}  // namespace
}  // namespace s3vcd::fp
