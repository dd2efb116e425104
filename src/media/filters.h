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

/// Smooths a 1-D signal with a Gaussian kernel (replicate borders); used by
/// the key-frame detector on the intensity-of-motion signal.
std::vector<double> GaussianSmooth1D(const std::vector<double>& signal,
                                     double sigma);

}  // namespace s3vcd::media

#endif  // S3VCD_MEDIA_FILTERS_H_
