#ifndef S3VCD_CORE_LSH_H_
#define S3VCD_CORE_LSH_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/descriptor_block.h"
#include "core/record.h"
#include "core/searcher.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

/// Options of the p-stable LSH baseline (Datar et al., 2004) — the other
/// contemporaneous approximate-search family, provided as a comparison
/// point alongside the VA-file. Each of `num_tables` tables hashes a
/// vector by `hashes_per_table` concatenated projections
/// h(v) = floor((a.v + b) / bucket_width), a ~ N(0, 1)^D, b ~ U[0, w).
struct LshOptions {
  int num_tables = 8;
  int hashes_per_table = 6;
  /// Quantization width of each projection; of the order of the target
  /// radius for good collision behaviour.
  double bucket_width = 120.0;
  uint64_t seed = 1;
};

/// Locality-sensitive hash index over a snapshot of fingerprint records.
/// Range queries return only true neighbors (exact distance filter on the
/// union of colliding buckets) but may miss some — the recall is
/// probabilistic, controlled by the table count. A comparison baseline,
/// not a served backend: in bench/ann_equal_recall every grid point is
/// beaten by a vamana beam (up to recall 0.99) or by the exact S3 range
/// query (beyond).
class LshIndex {
 public:
  LshIndex(std::vector<FingerprintRecord> records,
           const LshOptions& options);

  /// Approximate epsilon-range query: candidates are the records sharing a
  /// bucket with the query in any table; matches are exact-distance
  /// filtered. QueryStats::records_scanned counts the candidate set. Each
  /// query publishes one kRange record of the index.* metrics.
  QueryResult RangeQuery(const fp::Fingerprint& query, double epsilon) const;

  /// Expected bucket-collision probability for two points at distance
  /// `dist` under one table (the standard p-stable formula, for analysis
  /// and tests).
  double TableCollisionProbability(double dist) const;

 private:
  /// `v` points at kDims packed descriptor bytes.
  uint64_t BucketOf(int table, const uint8_t* v) const;

  LshOptions options_;
  /// Candidate verification runs over this SoA snapshot of the records.
  DescriptorBlock block_;
  /// projections_[t * k + i] = the D gaussian coefficients of hash i of
  /// table t; offsets_ holds the matching b terms.
  std::vector<std::array<float, fp::kDims>> projections_;
  std::vector<float> offsets_;
  std::vector<std::unordered_map<uint64_t, std::vector<uint32_t>>> tables_;
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_LSH_H_
