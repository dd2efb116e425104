// Reference kernels of the refinement scan. This translation unit is
// compiled with -fno-tree-vectorize (see src/core/CMakeLists.txt): it is
// the deterministic scalar baseline that the SIMD kernels are checked
// against and that the scalar leg of bench/micro_benchmarks measures.
#include "core/scan_kernel_internal.h"

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

}  // namespace internal
}  // namespace s3vcd::core
