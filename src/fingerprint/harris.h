#ifndef S3VCD_FINGERPRINT_HARRIS_H_
#define S3VCD_FINGERPRINT_HARRIS_H_

#include <vector>

#include "media/filters.h"
#include "media/frame.h"

namespace s3vcd::fp {

/// An interest point with its corner response.
struct InterestPoint {
  float x = 0;
  float y = 0;
  float response = 0;
};

/// Options of the Harris corner detector (the paper uses the improved
/// Harris of Schmid & Mohr: Gaussian derivatives plus Gaussian integration
/// of the structure tensor).
struct HarrisOptions {
  /// Scale of the Gaussian smoothing before differentiation.
  double derivative_sigma = 1.0;
  /// Scale of the Gaussian window integrating the structure tensor.
  double integration_sigma = 2.0;
  /// The Harris trace weight: R = det(M) - k * trace(M)^2.
  double k = 0.06;
  /// Keep at most this many strongest points per frame.
  int max_points = 20;
  /// Greedy minimum distance between returned points, in pixels.
  double min_distance = 10.0;
  /// Points whose response is below `relative_threshold` times the frame's
  /// strongest response are dropped. Kept deliberately low: a single
  /// inserted high-contrast graphic (logo, caption) can raise the peak by
  /// orders of magnitude, and a tight relative threshold would then discard
  /// every genuine content corner; the max_points/min_distance budget is
  /// the real selection mechanism.
  double relative_threshold = 1e-4;
  /// Points closer than this to the frame border are dropped so that the
  /// descriptor support stays inside the frame.
  int border = 8;
};

/// Harris corner response image of `frame`.
media::Frame HarrisResponse(const media::Frame& frame,
                            const HarrisOptions& options);

/// Detects interest points: local maxima of the Harris response, filtered
/// by threshold, border, non-max suppression and minimum distance; sorted
/// by decreasing response.
std::vector<InterestPoint> DetectInterestPoints(const media::Frame& frame,
                                                const HarrisOptions& options);

/// HarrisResponse and DetectInterestPoints for many frames: the two
/// Gaussian kernels are built once, and every intermediate image is reused
/// from frame to frame (storage grows only with the frame size). Outputs
/// equal the free functions' bit for bit. A detector is working memory for
/// one thread at a time; concurrent callers each need their own.
class HarrisDetector {
 public:
  explicit HarrisDetector(const HarrisOptions& options);

  /// The response image of `frame`; valid until the next call.
  const media::Frame& Response(const media::Frame& frame);

  std::vector<InterestPoint> Detect(const media::Frame& frame);

 private:
  HarrisOptions options_;
  std::vector<float> derivative_kernel_;
  std::vector<float> integration_kernel_;
  media::BlurScratch blur_;
  media::Frame smoothed_;
  media::Frame ixx_, iyy_, ixy_;  // gradient products
  media::Frame sxx_, syy_, sxy_;  // their integrated structure tensor
  media::Frame response_;
  std::vector<float> row_max_;  // 3-wide row maxima of the response
  std::vector<InterestPoint> candidates_;
};

}  // namespace s3vcd::fp

#endif  // S3VCD_FINGERPRINT_HARRIS_H_
