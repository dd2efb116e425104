#ifndef S3VCD_CORE_KNN_H_
#define S3VCD_CORE_KNN_H_

#include <cstdint>
#include <vector>

#include "core/index.h"
#include "core/record.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

/// Options of the k-nearest-neighbor search over the Hilbert index.
struct KnnOptions {
  /// Number of neighbors to return.
  int k = 10;
  /// 0 = exact search (distance-browsing best-first, provably exact).
  /// > 0 = approximate: stop after scanning this many leaf blocks, the
  /// early-stopping style of approximation the paper's related work
  /// discusses ([14], [15]).
  uint64_t max_blocks = 0;
  /// Partition depth of the leaf blocks that are scanned, clamped to
  /// [1, D]: a leaf is an orthant, a code range of the index.
  int depth = 14;
};

/// k-nearest-neighbor search over an S3Index by best-first traversal of the
/// block tree ordered by minimum distance (Hjaltason-Samet distance
/// browsing): provably exact when max_blocks = 0. Each query publishes one
/// kKnn record of the index.* metrics.
///
/// Provided as the comparison point for the paper's Section II argument
/// that k-NN semantics are wrong for copy detection: the number of relevant
/// fingerprints per query is highly variable (a clip can be duplicated
/// hundreds of times in a TV archive), so any fixed k truncates evidence.
/// See bench/ablation_knn_vote.
QueryResult KnnQuery(const S3Index& index, const fp::Fingerprint& query,
                     const KnnOptions& options);

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_KNN_H_
