#ifndef S3VCD_CORE_SCAN_KERNEL_H_
#define S3VCD_CORE_SCAN_KERNEL_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "core/descriptor_block.h"
#include "core/record.h"
#include "core/scan_kernel_internal.h"
#include "core/searcher.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

/// The shared refinement kernel: every backend's inner scan loop — the
/// S3 index's and the segment store's curve-section scans, the
/// pseudo-disk searcher's resident-section scan, the VA-file's phase-2
/// exact check, the LSH candidate filter and the sequential scan —
/// funnels each touched record through RefineRecord / ScanRecords, so
/// `records_scanned` and match accounting mean exactly the same thing on
/// every backend (pinned by tests/backend_parity_test.cc).
///
/// ScanRecords runs a blocked kernel over the structure-of-arrays
/// DescriptorBlock layout: a strip of packed descriptors at a time,
/// u8-difference -> i32-accumulate squared distances, through one of three
/// runtime-dispatched variants (portable scalar, SSE2, AVX2). The integer
/// arithmetic is exact, so every variant returns bitwise-identical
/// distances (asserted by tests/scan_kernel_test.cc) and a variant earns
/// its place only by speed. The default is the measured-fastest kernel the
/// CPU supports, not the widest ISA: AVX2 where present (it outran the
/// retired AVX-512 kernels on every BENCH_scan path), SSE2 on other
/// x86-64 hosts, scalar elsewhere.
///
/// Environment override:
///   S3VCD_SCAN_KERNEL=scalar|sse2|avx2  pin a specific kernel. An unknown
///     name (a retired kernel's included) or a kernel this CPU/build
///     cannot run prints a warning and keeps the default.

/// The available kernel implementations.
enum class ScanKernelKind {
  kScalar = 0,  ///< portable reference loop (always available)
  kSse2 = 1,    ///< x86-64 baseline SIMD
  kAvx2 = 2,    ///< 32-byte SIMD, the default when the CPU supports it
};

/// Display name of a kernel: "scalar", "sse2", "avx2".
const char* ScanKernelName(ScanKernelKind kind);

/// The kernel ScanRecords currently dispatches to. Defaults to the
/// measured-fastest variant this CPU supports; see the override above.
ScanKernelKind ActiveScanKernel();

/// Whether this build/CPU can run `kind`.
bool ScanKernelAvailable(ScanKernelKind kind);

/// Overrides the dispatched kernel (must be available); returns the
/// previous one. Testing/benchmark hook — call it before spawning query
/// threads.
ScanKernelKind SetScanKernelForTest(ScanKernelKind kind);

/// Parameters of one refinement pass. kNormalizedRadiusFilter on an
/// isotropic model (every ComponentScale(j) equal to one sigma) lowers to
/// kRadiusFilter at radius * sigma, so it runs the dispatched integer
/// kernel against (radius sigma)^2 and keeps exactly the records that
/// kRadiusFilter at that radius keeps. On an anisotropic model the
/// constructor precomputes the per-component 1/scale_j^2 weight table
/// instead, so the scan evaluates the normalized distance in a single pass
/// (no unnormalized distance is computed in that mode).
struct RefineSpec {
  /// `model` is only required for kNormalizedRadiusFilter.
  RefineSpec(RefinementMode mode, double radius, const DistortionModel* model)
      : mode(mode), radius_sq(radius * radius), model(model) {
    if (mode != RefinementMode::kNormalizedRadiusFilter || model == nullptr) {
      return;
    }
    const double sigma = model->ComponentScale(0);
    bool isotropic = true;
    for (int j = 0; j < fp::kDims; ++j) {
      const double scale = model->ComponentScale(j);
      isotropic = isotropic && scale == sigma;
      inv_scale_sq[j] = 1.0 / (scale * scale);
    }
    if (isotropic) {
      const double byte_radius = radius * sigma;
      this->mode = RefinementMode::kRadiusFilter;
      radius_sq = byte_radius * byte_radius;
      inv_scale_sq.fill(0);
    }
  }

  RefinementMode mode;
  double radius_sq;
  const DistortionModel* model;
  /// 1 / ComponentScale(j)^2, filled for kNormalizedRadiusFilter.
  std::array<double, fp::kDims> inv_scale_sq{};
};

/// Model-normalized squared distance sum_j (a_j - b_j)^2 * inv_scale_sq[j].
/// Defined once (in scan_kernel_scalar.cc) and called from every backend
/// and kernel variant, so normalized-mode results are bitwise identical
/// everywhere.
double NormalizedSquaredDistance(const uint8_t* a, const uint8_t* b,
                                 const double* inv_scale_sq);

/// Exact squared byte-space distance of two packed descriptors. Pure
/// integer arithmetic (max value 20 * 255^2 = 1,300,500, well inside
/// uint32_t) — identical to what the batch kernels compute per record.
inline uint32_t SquaredDistanceU32(const uint8_t* a, const uint8_t* b) {
  uint32_t acc = 0;
  for (int j = 0; j < fp::kDims; ++j) {
    const int diff = static_cast<int>(a[j]) - static_cast<int>(b[j]);
    acc += static_cast<uint32_t>(diff * diff);
  }
  return acc;
}

/// Refines one candidate record of a block (LSH candidate verification,
/// VA-file phase 2): bumps records_scanned, applies the mode's distance
/// test, and appends a Match on acceptance. Returns whether the record was
/// kept.
///
/// Match.distance semantics (the definitive statement, pinned by
/// tests/scan_kernel_test.cc): in kAll and kRadiusFilter modes, and in
/// kNormalizedRadiusFilter mode on an isotropic model (which RefineSpec
/// lowers to kRadiusFilter), it is the Euclidean byte-space distance
/// sqrt(sum_j (q_j - x_j)^2); in kNormalizedRadiusFilter mode on an
/// anisotropic model it is the model-normalized distance
/// sqrt(sum_j ((q_j - x_j) / scale_j)^2) — the one distance that mode
/// computes and tests against the radius (in sigma units). The
/// unnormalized distance is not computed in that mode.
inline bool RefineRecord(const fp::Fingerprint& query,
                         const DescriptorView& block, size_t i,
                         const RefineSpec& spec, QueryResult* result) {
  ++result->stats.records_scanned;
  const uint8_t* record = block.descriptor(i);
  double dist_sq;
  if (spec.mode == RefinementMode::kNormalizedRadiusFilter) {
    dist_sq = NormalizedSquaredDistance(query.data(), record,
                                        spec.inv_scale_sq.data());
  } else {
    dist_sq = static_cast<double>(SquaredDistanceU32(query.data(), record));
  }
  if (spec.mode != RefinementMode::kAll && dist_sq > spec.radius_sq) {
    return false;
  }
  result->matches.push_back({block.id(i), block.time_code(i),
                             static_cast<float>(std::sqrt(dist_sq)),
                             block.x(i), block.y(i)});
  return true;
}

inline bool RefineRecord(const fp::Fingerprint& query,
                         const DescriptorBlock& block, size_t i,
                         const RefineSpec& spec, QueryResult* result) {
  return RefineRecord(query, block.View(), i, spec, result);
}

/// Refines records [first, last) of a view through the dispatched blocked
/// kernel. Equivalent to calling RefineRecord on each index in order —
/// identical matches and records_scanned accounting, vectorized distance
/// computation. The view may point into a resident DescriptorBlock or at
/// columns mapped from an on-disk segment; the kernel only reads through
/// the view's pointers.
void ScanRecords(const fp::Fingerprint& query, const DescriptorView& block,
                 size_t first, size_t last, const RefineSpec& spec,
                 QueryResult* result);

inline void ScanRecords(const fp::Fingerprint& query,
                        const DescriptorBlock& block, size_t first,
                        size_t last, const RefineSpec& spec,
                        QueryResult* result) {
  ScanRecords(query, block.View(), first, last, spec, result);
}

/// One-query scorer for *gathered* candidate sets — the graph-traversal
/// counterpart of ScanRecords. Construction copies the query and resolves
/// the dispatched kernel; each Score() call then computes the exact integer
/// squared byte-space distances of K arbitrary record indices in a single
/// kernel call (scalar/SSE2/AVX2 variants, software prefetch of the
/// descriptor lines a few gathers ahead).
/// The distances are the same integers the strip kernels produce — bitwise
/// identical across every variant (pinned by tests/scan_kernel_test.cc).
/// The view's arrays must outlive the scorer; a scorer is cheap enough to
/// build per query and is immutable afterwards (safe to share across
/// threads, yet each beam search builds its own).
class GatherScorer {
 public:
  /// `query` points at fp::kDims exact descriptor bytes.
  GatherScorer(const uint8_t* query, const DescriptorView& view);
  GatherScorer(const fp::Fingerprint& query, const DescriptorView& view)
      : GatherScorer(query.data(), view) {}

  /// out[i] = squared distance of the query to record
  /// indices[i]. Indices may repeat and arrive in any order; every index
  /// must be < view.count.
  void Score(const uint32_t* indices, size_t k, uint32_t* out) const;

  /// Hints the hardware prefetcher at record `index`'s descriptor line —
  /// call it for the next hop's neighborhood while the current one is
  /// being consumed.
  void Prefetch(uint32_t index) const {
    __builtin_prefetch(
        descriptors_ + static_cast<size_t>(index) * fp::kDims, 0, 3);
  }

 private:
  const uint8_t* descriptors_;
  internal::SqDistGatherFn fn_;
  uint8_t query_[fp::kDims];
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_SCAN_KERNEL_H_
