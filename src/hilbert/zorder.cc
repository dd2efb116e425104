#include "hilbert/zorder.h"

#include "util/logging.h"

namespace s3vcd::hilbert {

ZOrderCurve::ZOrderCurve(int dims, int order) : dims_(dims), order_(order) {
  S3VCD_CHECK(dims >= 1 && dims <= kMaxDims);
  S3VCD_CHECK(order >= 1 && order <= kMaxOrder);
  S3VCD_CHECK(dims * order <= BitKey::kBits);
}

BitKey ZOrderCurve::Encode(const uint32_t* coords) const {
  BitKey key;
  for (int level = order_ - 1; level >= 0; --level) {
    for (int j = 0; j < dims_; ++j) {
      S3VCD_DCHECK(coords[j] < grid_size());
      key.AppendBits((coords[j] >> level) & 1u, 1);
    }
  }
  return key;
}

void ZOrderCurve::Decode(const BitKey& key, uint32_t* coords) const {
  for (int j = 0; j < dims_; ++j) {
    coords[j] = 0;
  }
  int pos = key_bits();
  for (int level = order_ - 1; level >= 0; --level) {
    for (int j = 0; j < dims_; ++j) {
      --pos;
      coords[j] |= static_cast<uint32_t>(key.bit(pos)) << level;
    }
  }
}

}  // namespace s3vcd::hilbert
