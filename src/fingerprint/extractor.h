#ifndef S3VCD_FINGERPRINT_EXTRACTOR_H_
#define S3VCD_FINGERPRINT_EXTRACTOR_H_

#include <vector>

#include "fingerprint/descriptor.h"
#include "fingerprint/fingerprint.h"
#include "fingerprint/harris.h"
#include "fingerprint/keyframe.h"
#include "media/frame.h"

namespace s3vcd::fp {

/// All options of the fingerprint extraction pipeline of Section III:
/// key-frame detection -> Harris interest points -> local differential
/// descriptors quantized to [0, 255]^20.
struct ExtractorOptions {
  KeyFrameOptions keyframe;
  HarrisOptions harris;
  DescriptorOptions descriptor;
};

/// End-to-end extractor. Stateless and thread-compatible; one instance can
/// serve many videos.
class FingerprintExtractor {
 public:
  explicit FingerprintExtractor(ExtractorOptions options = {})
      : options_(options) {}

  const ExtractorOptions& options() const { return options_; }

  /// Extracts the local fingerprints of every key-frame of `video`.
  /// Time codes are frame indices within the video.
  std::vector<LocalFingerprint> Extract(
      const media::VideoSequence& video) const;

  /// Extracts fingerprints at caller-provided positions in one key-frame
  /// (used by the simulated perfect detector); positions too close to the
  /// border for the descriptor support, or not finite, are skipped, and the
  /// returned vector keeps input order with a validity flag encoded by
  /// `kept`.
  struct PositionedResult {
    std::vector<LocalFingerprint> fingerprints;
    std::vector<bool> kept;  ///< kept[i]: input position i produced output
  };
  PositionedResult ExtractAtPositions(
      const media::VideoSequence& video, int key_frame,
      const std::vector<std::pair<double, double>>& positions) const;

 private:
  /// Descriptor support margin: positions closer than this to the border
  /// cannot be described reliably.
  double BorderMargin() const {
    return options_.descriptor.spatial_offset + 2.0;
  }

  ExtractorOptions options_;
};

}  // namespace s3vcd::fp

#endif  // S3VCD_FINGERPRINT_EXTRACTOR_H_
