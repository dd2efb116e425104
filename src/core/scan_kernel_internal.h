#ifndef S3VCD_CORE_SCAN_KERNEL_INTERNAL_H_
#define S3VCD_CORE_SCAN_KERNEL_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "fingerprint/fingerprint.h"

namespace s3vcd::core::internal {

/// Batch squared distances of `n` packed descriptors (fp::kDims bytes
/// each, back to back) against one query descriptor, in record order:
/// out[i] = sum_j (desc[i*kDims+j] - query[j])^2. All kernel variants
/// compute this value exactly (pure integer arithmetic), so their outputs
/// are bitwise identical.
using SqDistBatchFn = void (*)(const uint8_t* desc, size_t n,
                               const uint8_t* query, uint32_t* out);

/// The portable reference kernel. Lives in its own translation unit
/// (scan_kernel_scalar.cc) compiled with auto-vectorization disabled, so
/// the "scalar" leg of the scalar-vs-SIMD benchmark measures a genuine
/// scalar loop rather than whatever the optimizer re-vectorized.
void SqDistBatchScalar(const uint8_t* desc, size_t n, const uint8_t* query,
                       uint32_t* out);

/// Gathered batch distances: out[i] = squared distance of the query to
/// packed record indices[i] (an arbitrary, possibly repeating id set — the
/// graph-traversal counterpart of SqDistBatchFn's contiguous strip). SIMD
/// variants software-prefetch the descriptor lines a few gathers ahead;
/// the arithmetic per record is identical to the strip kernels, so every
/// variant is bitwise identical (pinned by tests/scan_kernel_test.cc).
using SqDistGatherFn = void (*)(const uint8_t* desc, const uint32_t* indices,
                                size_t k, const uint8_t* query,
                                uint32_t* out);

/// Scalar gather reference (scan_kernel_scalar.cc, no-auto-vectorization).
void SqDistGatherScalar(const uint8_t* desc, const uint32_t* indices,
                        size_t k, const uint8_t* query, uint32_t* out);

}  // namespace s3vcd::core::internal

#endif  // S3VCD_CORE_SCAN_KERNEL_INTERNAL_H_
