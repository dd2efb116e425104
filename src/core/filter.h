#ifndef S3VCD_CORE_FILTER_H_
#define S3VCD_CORE_FILTER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/distortion_model.h"
#include "fingerprint/fingerprint.h"
#include "hilbert/hilbert_curve.h"
#include "hilbert/zorder.h"
#include "util/bitkey.h"

namespace s3vcd::core {

/// Options of the filtering step.
struct FilterOptions {
  /// Partition depth p (number of curve key prefix bits). Clamped to
  /// [1, D], D = 20 the descriptor dimension: at those depths a p-block is
  /// an orthant (see BlockFilter).
  int depth = 12;
  /// Target expectation alpha of the statistical query, in (0, 1).
  double alpha = 0.8;
  /// Safety cap on the number of selected blocks.
  uint64_t max_blocks = 1 << 16;
};

/// Result of the filtering step: the curve sections to scan.
///
/// Cap semantics, identical for BlockFilter and ZOrderBlockFilter (they
/// share one template): blocks stop being emitted once `max_blocks` are
/// collected. The selection is then *partial but valid*: the
/// highest-probability blocks emitted so far, with `probability_mass` the
/// mass actually covered — possibly below alpha.
struct BlockSelection {
  /// Merged, sorted, disjoint key ranges [begin, end).
  std::vector<std::pair<BitKey, BitKey>> ranges;
  /// Achieved probability mass (statistical filter only).
  double probability_mass = 0;
  uint64_t num_blocks = 0;
  /// Work done: candidate orthants popped by the statistical enumerator
  /// (>= 1), or orthant-tree nodes entered by the range search.
  uint64_t nodes_visited = 0;
};

/// Reusable per-thread (or per-owner) workspace for block selection. After
/// the first few queries warm its pools, a selection allocates nothing: the
/// enumerator heap and the block lists are recycled. The members are an
/// implementation detail of filter.cc; callers only construct, reuse and
/// (optionally) inspect ApproxBytes(). Not thread-safe: one scratch per
/// thread — see ThreadLocalSelectionScratch().
struct SelectionScratch {
  std::vector<std::pair<double, uint32_t>> heap;  ///< (cost, flip set) heap
  std::vector<BitKey> prefixes;  ///< selected block prefixes, pre-merge
  std::vector<double> probs;     ///< their probabilities

  /// Approximate heap footprint of the pooled storage, for capacity
  /// monitoring in long-running services.
  uint64_t ApproxBytes() const;
};

/// The scratch used when a caller passes none. One instance per thread;
/// batch services thread it through explicitly (see ShardedSearcher) so
/// the dependency is visible, but plain callers may rely on this default.
SelectionScratch& ThreadLocalSelectionScratch();

/// Computes block selections for statistical and epsilon-range queries over
/// a Hilbert curve partition, which it holds by value. Stateless w.r.t.
/// queries. Query methods are const and thread-safe as long as
/// concurrent callers use distinct SelectionScratch objects (the default
/// thread-local one qualifies).
///
/// At depth p <= D every split from the root halves a distinct axis at
/// byte 127.5 (hilbert::OrthantSplitAxis), so a p-block is an orthant: a
/// side per split axis. Selection works on those sign patterns directly,
/// in closed form, and maps each chosen pattern to its curve prefix with
/// hilbert::OrthantPrefix.
class BlockFilter {
 public:
  explicit BlockFilter(const hilbert::HilbertCurve& curve);

  /// Statistical filtering (Section IV-A): selects the most probable
  /// p-blocks under the distortion model centered at `query` until their
  /// total probability reaches `options.alpha` (or the achievable maximum
  /// when the model's mass within the grid is below alpha). Patterns are
  /// enumerated in decreasing probability: the best one takes the likelier
  /// side on every split axis, and the others in increasing total flip
  /// cost log(max/min) of the flipped axes' half-masses, as multi-probe
  /// LSH orders its probes (Lv et al., VLDB 2007). See BlockSelection for
  /// the partial selection returned when `max_blocks` fires.
  BlockSelection SelectStatistical(const fp::Fingerprint& query,
                                   const DistortionModel& model,
                                   const FilterOptions& options,
                                   SelectionScratch* scratch = nullptr) const;

  /// Geometric filtering for a spherical epsilon-range query: selects all
  /// p-blocks intersecting the ball of radius `epsilon` (byte units)
  /// centered at `query`, under the same quantization-interval convention
  /// as the statistical filter (cell range [lo, hi) covers bytes
  /// [lo*w - 0.5, hi*w - 0.5), edge cells extended to +/- infinity).
  /// `depth` is clamped to [1, D] like FilterOptions::depth.
  BlockSelection SelectRange(const fp::Fingerprint& query, double epsilon,
                             int depth, uint64_t max_blocks = 1 << 20,
                             SelectionScratch* scratch = nullptr) const;

  const hilbert::HilbertCurve& curve() const { return curve_; }

 private:
  hilbert::HilbertCurve curve_;
};

/// Merges a list of equal-depth blocks (given by their prefixes) into
/// sorted disjoint key ranges; exposed for tests.
std::vector<std::pair<BitKey, BitKey>> MergeBlockRanges(
    std::vector<BitKey> prefixes, int depth, int key_bits);

/// The same filtering rules over the Z-order (Morton) partition instead of
/// the Hilbert partition, sharing the exact same selection template — cap
/// accounting and partial-selection semantics are identical to
/// BlockFilter. Selection quality is identical in block count at equal
/// depth; what differs is the *clustering* of the selected blocks along
/// the curve — the property the paper's Hilbert choice buys (see
/// bench/ablation_curve_clustering).
class ZOrderBlockFilter {
 public:
  explicit ZOrderBlockFilter(const hilbert::ZOrderCurve& curve);

  BlockSelection SelectStatistical(const fp::Fingerprint& query,
                                   const DistortionModel& model,
                                   const FilterOptions& options,
                                   SelectionScratch* scratch = nullptr) const;
  BlockSelection SelectRange(const fp::Fingerprint& query, double epsilon,
                             int depth, uint64_t max_blocks = 1 << 20,
                             SelectionScratch* scratch = nullptr) const;

  const hilbert::ZOrderCurve& curve() const { return curve_; }

 private:
  hilbert::ZOrderCurve curve_;
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_FILTER_H_
