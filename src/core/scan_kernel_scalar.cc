// Reference kernels of the refinement scan. This translation unit is
// compiled with -fno-tree-vectorize (see src/core/CMakeLists.txt): it is
// the deterministic scalar baseline that the SIMD kernels are checked
// against and that the scalar leg of bench/micro_benchmarks measures.
#include "core/scan_kernel_internal.h"

#include "core/descriptor_codec.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

double NormalizedSquaredDistance(const uint8_t* a, const uint8_t* b,
                                 const double* inv_scale_sq) {
  // The single definition of the model-normalized distance: every backend
  // and kernel calls this one function, so normalized-mode results are
  // bitwise identical everywhere regardless of per-TU code generation.
  double acc = 0;
  for (int j = 0; j < fp::kDims; ++j) {
    const double diff =
        static_cast<double>(a[j]) - static_cast<double>(b[j]);
    acc += diff * diff * inv_scale_sq[j];
  }
  return acc;
}

namespace internal {

void SqDistBatchScalar(const uint8_t* desc, size_t n, const uint8_t* query,
                       uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* d = desc + i * fp::kDims;
    uint32_t acc = 0;
    for (int j = 0; j < fp::kDims; ++j) {
      const int diff = static_cast<int>(d[j]) - static_cast<int>(query[j]);
      acc += static_cast<uint32_t>(diff * diff);
    }
    out[i] = acc;
  }
}

QuantQuery MakeQuantQuery(const uint8_t* query,
                          const DescriptorCodec& codec) {
  QuantQuery q;
  for (int j = 0; j < fp::kDims; ++j) {
    q.query[j] = query[j];
    q.step16[j] = codec.step16[j];
    q.lo[j] = codec.lo[j];
  }
  return q;
}

void SqDistCodedBatchScalar(const uint8_t* codes, size_t n,
                            const QuantQuery& q, uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* c = codes + i * kCodedRecordBytes;
    uint32_t acc = 0;
    for (int j = 0; j < fp::kDims; ++j) {
      const uint32_t code = (j & 1) ? (c[j / 2] >> 4) : (c[j / 2] & 0x0F);
      // The decode formula of core/descriptor_codec.h, in u16-safe
      // integer steps (the SIMD variants mirror these exact operations).
      uint32_t v = q.lo[j] + ((code * q.step16[j] + 128u) >> 8);
      if (v > 255u) {
        v = 255u;
      }
      const int diff = static_cast<int>(v) - static_cast<int>(q.query[j]);
      acc += static_cast<uint32_t>(diff * diff);
    }
    out[i] = acc;
  }
}

void SqDistGatherScalar(const uint8_t* desc, const uint32_t* indices,
                        size_t k, const uint8_t* query, uint32_t* out) {
  for (size_t i = 0; i < k; ++i) {
    const uint8_t* d = desc + static_cast<size_t>(indices[i]) * fp::kDims;
    uint32_t acc = 0;
    for (int j = 0; j < fp::kDims; ++j) {
      const int diff = static_cast<int>(d[j]) - static_cast<int>(query[j]);
      acc += static_cast<uint32_t>(diff * diff);
    }
    out[i] = acc;
  }
}

void SqDistCodedGatherScalar(const uint8_t* codes, const uint32_t* indices,
                             size_t k, const QuantQuery& q, uint32_t* out) {
  for (size_t i = 0; i < k; ++i) {
    const uint8_t* c =
        codes + static_cast<size_t>(indices[i]) * kCodedRecordBytes;
    uint32_t acc = 0;
    for (int j = 0; j < fp::kDims; ++j) {
      const uint32_t code = (j & 1) ? (c[j / 2] >> 4) : (c[j / 2] & 0x0F);
      uint32_t v = q.lo[j] + ((code * q.step16[j] + 128u) >> 8);
      if (v > 255u) {
        v = 255u;
      }
      const int diff = static_cast<int>(v) - static_cast<int>(q.query[j]);
      acc += static_cast<uint32_t>(diff * diff);
    }
    out[i] = acc;
  }
}

}  // namespace internal
}  // namespace s3vcd::core
