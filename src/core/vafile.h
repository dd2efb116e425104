#ifndef S3VCD_CORE_VAFILE_H_
#define S3VCD_CORE_VAFILE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/descriptor_block.h"
#include "core/record.h"
#include "core/searcher.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

/// Options of the VA-file baseline.
struct VAFileOptions {
  /// Bits of the per-dimension approximation, in [1, 8]; the classic
  /// VA-file sweet spot for byte data is 4-6.
  int bits_per_dim = 4;
  /// true: slice boundaries at data quantiles (equal-population slices,
  /// Weber & Blott's recommendation); false: equal-width slices.
  bool quantile_boundaries = true;
};

/// Vector-Approximation file (Weber & Blott), the improved-sequential-scan
/// baseline the paper cites ([11]) as sometimes beating all tree
/// structures in high dimension. Every vector is approximated by a
/// compact cell signature; a query first scans the signatures computing
/// cheap lower/upper distance bounds and only fetches the exact vectors
/// that survive the filtering. A comparison baseline, not a served backend:
/// bench/baseline_vafile shows it slower than both the sequential scan and
/// the exact S3 range query at equal results.
class VAFile {
 public:
  /// Builds the approximation file over a snapshot of `records` (copied).
  VAFile(std::vector<FingerprintRecord> records,
         const VAFileOptions& options);

  size_t size() const { return block_.size(); }
  int bits_per_dim() const { return options_.bits_per_dim; }

  /// Exact epsilon-range query (all records with distance <= epsilon).
  /// Each query publishes one kRange record of the index.* metrics.
  QueryResult RangeQuery(const fp::Fingerprint& query, double epsilon) const;

  /// Exact k-nearest-neighbor query (VA-SSA style: candidates ordered by
  /// lower bound, cut by the running kth upper bound). Each query
  /// publishes one kKnn record of the index.* metrics.
  QueryResult KnnQuery(const fp::Fingerprint& query, int k) const;

  /// Size of the approximation data in conceptual VA-file bits.
  uint64_t ApproximationBits() const {
    return static_cast<uint64_t>(block_.size()) * fp::kDims *
           options_.bits_per_dim;
  }

  /// Approximate resident bytes: the exact vectors plus the conceptual
  /// size of the approximations.
  uint64_t ApproxBytes() const {
    return block_.MemoryBytes() + ApproximationBits() / 8;
  }

 private:
  /// Slice index of value v in dimension j.
  int SliceOf(int dim, uint8_t value) const;

  /// Per-query tables: squared lower/upper bound contribution of each
  /// (dim, slice).
  void BuildBoundTables(
      const fp::Fingerprint& query,
      std::array<std::vector<double>, fp::kDims>* lower_sq,
      std::array<std::vector<double>, fp::kDims>* upper_sq) const;

  VAFileOptions options_;
  int slices_;
  /// The exact vectors in SoA layout (phase 2 runs over this block).
  DescriptorBlock block_;
  /// Per-dimension slice boundaries, slices_ + 1 ascending values in
  /// [0, 256]; slice s spans [boundaries[s], boundaries[s+1]).
  std::array<std::vector<double>, fp::kDims> boundaries_;
  /// Packed approximations: one byte per (record, dim) for simplicity of
  /// access (bits_per_dim <= 8); the *conceptual* size is bits_per_dim
  /// bits and is what the memory accounting below reports.
  std::vector<uint8_t> cells_;
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_VAFILE_H_
