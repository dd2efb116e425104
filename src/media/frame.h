#ifndef S3VCD_MEDIA_FRAME_H_
#define S3VCD_MEDIA_FRAME_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace s3vcd::media {

/// A single grayscale video frame. Pixels are stored row-major as floats in
/// the nominal range [0, 255]; intermediate processing may exceed the range
/// and is clamped when a transform requires it.
class Frame {
 public:
  Frame() = default;

  /// Creates a width x height frame filled with `fill`.
  Frame(int width, int height, float fill = 0.0f)
      : width_(width),
        height_(height),
        pixels_(static_cast<size_t>(width) * height, fill) {
    S3VCD_CHECK(width > 0 && height > 0);
  }

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return pixels_.empty(); }
  size_t size() const { return pixels_.size(); }

  /// Unchecked pixel access; (x, y) must be inside the frame.
  float at(int x, int y) const {
    S3VCD_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_);
    return pixels_[static_cast<size_t>(y) * width_ + x];
  }
  float& at(int x, int y) {
    S3VCD_DCHECK(x >= 0 && x < width_ && y >= 0 && y < height_);
    return pixels_[static_cast<size_t>(y) * width_ + x];
  }

  /// Pixel access with coordinates clamped to the frame border (replicate
  /// padding); safe for any (x, y).
  float at_clamped(int x, int y) const {
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return pixels_[static_cast<size_t>(y) * width_ + x];
  }

  /// Makes this a width x height frame, keeping the allocated storage when
  /// it is large enough. Pixel values are unspecified afterwards; callers
  /// overwrite every pixel.
  void Reshape(int width, int height) {
    S3VCD_CHECK(width > 0 && height > 0);
    width_ = width;
    height_ = height;
    pixels_.resize(static_cast<size_t>(width) * height);
  }

  const std::vector<float>& pixels() const { return pixels_; }
  std::vector<float>& pixels() { return pixels_; }

  /// Mean intensity over all pixels (0 for an empty frame).
  double Mean() const;

  /// Mean absolute difference against another frame of identical size: the
  /// paper's "intensity of motion" building block.
  double MeanAbsDifference(const Frame& other) const;

  /// Clamps every pixel into [0, 255].
  void ClampToByteRange();

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<float> pixels_;
};

/// A sequence of equally sized frames with a frame rate. Time codes used in
/// the CBCD pipeline are frame indices within the reference sequence.
struct VideoSequence {
  std::vector<Frame> frames;
  double fps = 25.0;

  int num_frames() const { return static_cast<int>(frames.size()); }
  int width() const { return frames.empty() ? 0 : frames[0].width(); }
  int height() const { return frames.empty() ? 0 : frames[0].height(); }
  double duration_seconds() const {
    return fps > 0 ? num_frames() / fps : 0.0;
  }
};

}  // namespace s3vcd::media

#endif  // S3VCD_MEDIA_FRAME_H_
