#ifndef S3VCD_MEDIA_FILTERS_H_
#define S3VCD_MEDIA_FILTERS_H_

#include <vector>

#include "media/frame.h"

namespace s3vcd::media {

/// Normalized 1-D Gaussian kernel of standard deviation `sigma`, truncated
/// at 3 sigma (radius = ceil(3 sigma), always odd length).
std::vector<float> GaussianKernel1D(double sigma);

/// Separable Gaussian blur with replicate border handling.
Frame GaussianBlur(const Frame& frame, double sigma);

/// Working memory of SeparableBlur: the row-pass image and one source row
/// padded with replicated edge values. One scratch serves one thread.
struct BlurScratch {
  Frame rows;
  std::vector<float> padded;
};

/// Convolves `in` with the odd-length `kernel` along rows, then along
/// columns, with replicate borders, into `*out` (reshaped to the size of
/// `in`; it must not be `in`). Reuses the storage of `*out` and `*scratch`,
/// so a caller blurring many frames of one size allocates once.
/// GaussianBlur(frame, sigma) is this with GaussianKernel1D(sigma).
void SeparableBlur(const Frame& in, const std::vector<float>& kernel,
                   BlurScratch* scratch, Frame* out);

/// Smooths a 1-D signal with a Gaussian kernel (replicate borders); used by
/// the key-frame detector on the intensity-of-motion signal.
std::vector<double> GaussianSmooth1D(const std::vector<double>& signal,
                                     double sigma);

}  // namespace s3vcd::media

#endif  // S3VCD_MEDIA_FILTERS_H_
