#ifndef S3VCD_FINGERPRINT_DESCRIPTOR_H_
#define S3VCD_FINGERPRINT_DESCRIPTOR_H_

#include <optional>
#include <vector>

#include "fingerprint/fingerprint.h"
#include "media/frame.h"

namespace s3vcd::fp {

/// Options of the local differential descriptor (paper Section III): four
/// 5-dimensional sub-fingerprints s_i = (Ix, Iy, Ixy, Ixx, Iyy) computed at
/// four spatio-temporal positions around the interest point, each L2
/// normalized, concatenated and quantized to [0, 255]^20.
struct DescriptorOptions {
  /// Spatial offset of the four support positions, in pixels.
  double spatial_offset = 4.0;
  /// Temporal offset, in frames: two positions at t - dt, two at t + dt.
  int temporal_offset = 2;
  /// Gaussian scale of the differential decomposition.
  double derivative_sigma = 1.5;
};

/// The Gaussian-smoothed frame from which the local jet is sampled; built
/// once per frame and reused across all interest points of a key-frame.
class DerivativeStack {
 public:
  DerivativeStack(const media::Frame& frame, double sigma);

  /// Samples the 5-dimensional local jet (Ix, Iy, Ixy, Ixx, Iyy) at a
  /// continuous position: the central differences of the smoothed frame at
  /// the four surrounding pixels (clamped into the frame), bilinearly
  /// interpolated. `x` and `y` must be finite.
  void SampleJet(double x, double y, double* jet5) const;

 private:
  media::Frame smoothed_;
};

/// The four spatio-temporal support positions around (x, y, t):
/// (x-d, y-d, t-dt), (x+d, y+d, t-dt), (x+d, y-d, t+dt), (x-d, y+d, t+dt).
struct SupportPosition {
  double x;
  double y;
  int frame_offset;  // -dt or +dt
};
std::vector<SupportPosition> SupportPositions(double x, double y,
                                              const DescriptorOptions& opt);

/// Computes the fingerprint at interest point (x, y) in key-frame `t` using
/// precomputed derivative stacks for frames t - dt and t + dt. Degenerate
/// sub-jets (near-zero norm, e.g. in flat black borders) quantize to the
/// neutral byte 128.
Fingerprint ComputeDescriptor(const DerivativeStack& before,
                              const DerivativeStack& after, double x,
                              double y, const DescriptorOptions& options);

}  // namespace s3vcd::fp

#endif  // S3VCD_FINGERPRINT_DESCRIPTOR_H_
