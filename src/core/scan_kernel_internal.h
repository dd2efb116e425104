#ifndef S3VCD_CORE_SCAN_KERNEL_INTERNAL_H_
#define S3VCD_CORE_SCAN_KERNEL_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "fingerprint/fingerprint.h"

namespace s3vcd::core {
struct DescriptorCodec;
}  // namespace s3vcd::core

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

/// Bytes per coded record: the fused kernels read lvq4 codes, two axes
/// per byte with the even axis in the low nibble.
inline constexpr size_t kCodedRecordBytes = fp::kDims / 2;

/// Per-scan precomputation of a quantized sweep: the query and the codec
/// parameters widened to u16 so the fused decode+distance kernels index
/// plain arrays (or load them straight into vectors). Built once per
/// ScanRecords call on a coded view.
struct QuantQuery {
  uint16_t query[fp::kDims];   ///< exact query, widened
  uint16_t step16[fp::kDims];  ///< codec fixed-point steps
  uint16_t lo[fp::kDims];      ///< codec biases, widened
};

/// Builds a QuantQuery from the query bytes and a (quantized) codec.
QuantQuery MakeQuantQuery(const uint8_t* query, const DescriptorCodec& codec);

/// Batch fused decode + squared distance over packed *coded* records
/// (kCodedRecordBytes each, back to back):
/// out[i] = sum_j (decode(c_ij) - q_j)^2 with the decode formula of
/// core/descriptor_codec.h. Pure integer
/// arithmetic — every variant is bitwise identical (pinned by
/// tests/descriptor_codec_test.cc).
using SqDistCodedBatchFn = void (*)(const uint8_t* codes, size_t n,
                                    const QuantQuery& q, uint32_t* out);

/// Scalar reference of the fused kernel (scan_kernel_scalar.cc, same
/// no-auto-vectorization TU as the exact reference).
void SqDistCodedBatchScalar(const uint8_t* codes, size_t n,
                            const QuantQuery& q, uint32_t* out);

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

/// Gathered fused decode + distance over coded records (kCodedRecordBytes
/// per record, exactly like SqDistCodedBatchFn).
using SqDistCodedGatherFn = void (*)(const uint8_t* codes,
                                     const uint32_t* indices, size_t k,
                                     const QuantQuery& q, uint32_t* out);

/// Scalar coded gather reference (scan_kernel_scalar.cc).
void SqDistCodedGatherScalar(const uint8_t* codes, const uint32_t* indices,
                             size_t k, const QuantQuery& q, uint32_t* out);

}  // namespace s3vcd::core::internal

#endif  // S3VCD_CORE_SCAN_KERNEL_INTERNAL_H_
