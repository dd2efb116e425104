#ifndef S3VCD_HILBERT_HILBERT_CURVE_H_
#define S3VCD_HILBERT_HILBERT_CURVE_H_

#include <cstdint>

#include "hilbert/gray_code.h"
#include "util/bitkey.h"

namespace s3vcd::hilbert {

/// Maximum number of dimensions supported (digit must fit in a uint32).
inline constexpr int kMaxDims = 32;
/// Maximum bits per coordinate; dims * order must also fit in BitKey::kBits.
inline constexpr int kMaxOrder = 32;

namespace internal {

/// Number of trailing set bits of i (the inter-subcube direction g(i) of
/// Hamilton's formulation of the Butz algorithm).
inline int TrailingSetBits(uint32_t i) {
  return i == ~uint32_t{0} ? 32 : __builtin_ctz(~i);
}

/// Rotate the low `n` bits of x right by r (r in [0, n)).
inline uint32_t RotateRight(uint32_t x, int r, int n) {
  if (r == 0) {
    return x;
  }
  const uint32_t mask = n == 32 ? ~uint32_t{0} : ((uint32_t{1} << n) - 1);
  x &= mask;
  return ((x >> r) | (x << (n - r))) & mask;
}

/// Rotate the low `n` bits of x left by r (r in [0, n)).
inline uint32_t RotateLeft(uint32_t x, int r, int n) {
  if (r == 0) {
    return x;
  }
  const uint32_t mask = n == 32 ? ~uint32_t{0} : ((uint32_t{1} << n) - 1);
  x &= mask;
  return ((x << r) | (x >> (n - r))) & mask;
}

/// Entry point e(w) of sub-hypercube w (in curve order) for a D-dim level.
inline uint32_t EntryPoint(uint32_t w) {
  if (w == 0) {
    return 0;
  }
  return GrayCode((w - 1) & ~uint32_t{1});
}

/// Intra sub-hypercube direction d(w) for a D-dim level, in [0, dims).
inline int IntraDirection(uint32_t w, int dims) {
  if (w == 0) {
    return 0;
  }
  const int g =
      (w & 1) ? TrailingSetBits(w) : TrailingSetBits(w - 1);
  return g % dims;
}

}  // namespace internal

/// A D-dimensional, order-K Hilbert space-filling curve: a bijection between
/// grid points in [0, 2^K)^D and derived keys in [0, 2^(K*D)) such that
/// consecutive keys map to grid neighbors (the clustering property exploited
/// by the S3 index, Section IV of the paper).
///
/// The implementation follows the Butz algorithm in Hamilton's entry-point /
/// direction formulation: each of the K levels consumes one D-bit digit,
/// transformed by a rotation-and-reflection state machine. Unlike Lawder's
/// state-diagram approach it needs O(1) memory regardless of D, which is
/// what makes the paper's D = 20 practical.
///
/// Thread-safe: the class is immutable after construction.
class HilbertCurve {
 public:
  /// `dims` in [1, 32]; `order` in [1, 32]; dims * order <= BitKey::kBits.
  HilbertCurve(int dims, int order);

  int dims() const { return dims_; }
  int order() const { return order_; }
  /// Total key length in bits: dims * order.
  int key_bits() const { return dims_ * order_; }
  /// Grid cells per side: 2^order.
  uint32_t grid_size() const { return uint32_t{1} << order_; }

  /// Maps a grid point (coords[j] in [0, 2^order)) to its curve position.
  BitKey Encode(const uint32_t* coords) const;

  /// Maps a curve position back to its grid point; inverse of Encode.
  void Decode(const BitKey& key, uint32_t* coords) const;

 private:
  int dims_;
  int order_;
};

}  // namespace s3vcd::hilbert

#endif  // S3VCD_HILBERT_HILBERT_CURVE_H_
