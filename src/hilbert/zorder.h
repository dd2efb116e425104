#ifndef S3VCD_HILBERT_ZORDER_H_
#define S3VCD_HILBERT_ZORDER_H_

#include <cstdint>

#include "hilbert/hilbert_curve.h"
#include "util/bitkey.h"

namespace s3vcd::hilbert {

/// Z-order (Morton) space-filling curve: plain bit interleaving, the
/// simpler alternative the Hilbert curve is usually compared against.
/// Provided to ablate the paper's choice of Hilbert ordering (Section IV):
/// Morton blocks are also hyper-rectangles, but consecutive curve positions
/// are not always grid neighbors, so a query region fragments into more
/// disjoint curve sections (see bench/ablation_curve_clustering).
class ZOrderCurve {
 public:
  /// Same domain contract as HilbertCurve: dims in [1, 32], order in
  /// [1, 32], dims * order <= BitKey::kBits.
  ZOrderCurve(int dims, int order);

  int dims() const { return dims_; }
  int order() const { return order_; }
  int key_bits() const { return dims_ * order_; }
  uint32_t grid_size() const { return uint32_t{1} << order_; }

  /// Interleaves coordinate bits MSB-first: level K-1 of dims 0..D-1, then
  /// level K-2, ... so that depth-p prefixes halve one axis at a time in
  /// round-robin order.
  BitKey Encode(const uint32_t* coords) const;
  void Decode(const BitKey& key, uint32_t* coords) const;

 private:
  int dims_;
  int order_;
};

}  // namespace s3vcd::hilbert

#endif  // S3VCD_HILBERT_ZORDER_H_
