#ifndef S3VCD_HILBERT_GRAY_CODE_H_
#define S3VCD_HILBERT_GRAY_CODE_H_

#include <cstdint>

namespace s3vcd::hilbert::internal {

/// Binary reflected Gray code.
inline uint32_t GrayCode(uint32_t i) { return i ^ (i >> 1); }

/// Inverse Gray code for values with fewer than 32 significant bits: each
/// bit is the XOR of itself and every bit above it, so the top p bits of
/// the result depend only on the top p bits of `g`.
inline uint32_t GrayCodeInverse(uint32_t g) {
  uint32_t i = g;
  for (int shift = 1; shift < 32; shift <<= 1) {
    i ^= i >> shift;
  }
  return i;
}

}  // namespace s3vcd::hilbert::internal

#endif  // S3VCD_HILBERT_GRAY_CODE_H_
