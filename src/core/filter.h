#ifndef S3VCD_CORE_FILTER_H_
#define S3VCD_CORE_FILTER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/distortion_model.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

/// An orthant code: the position of a depth-D orthant cell (a side per
/// descriptor axis, byte >= 128 the upper one) along the partition's
/// curve, in D = 20 bits. The code of a depth-p block (p <= D) is the top
/// p bits of its cells' codes, so a block is the code range
/// [prefix << (D - p), (prefix + 1) << (D - p)).
inline constexpr int kCodeBits = fp::kDims;
/// One past the largest code: the end of the code space.
inline constexpr uint32_t kCodeEnd = uint32_t{1} << kCodeBits;

/// The first D levels of the Hilbert partition in closed form. From the
/// root the s-th split halves a distinct axis at byte 127.5, so a p-block
/// is an orthant: a side (1 = upper half) per split axis, packed MSB-first
/// into `sides` (bit p - s for the s-th split). Pinned against
/// hilbert::BlockTree::Split by tests/block_tree_test.cc.
struct HilbertOrthants {
  /// Axis halved by the step-th split, step in [1, D]: axes 0, D - 1,
  /// ..., 1.
  static int SplitAxis(int step) {
    return step == 1 ? 0 : kCodeBits + 1 - step;
  }
  /// The block's code prefix: the inverse Gray code of its sides.
  static uint32_t Prefix(uint32_t sides);
};

/// The same for the Z-order (Morton) partition: the s-th split halves axis
/// s - 1, and the prefix is the sides unchanged, the sign bits in axis
/// order. Pinned by tests/zorder_test.cc.
struct ZOrderOrthants {
  static int SplitAxis(int step) { return step - 1; }
  static uint32_t Prefix(uint32_t sides) { return sides; }
};

/// Options of the filtering step.
struct FilterOptions {
  /// Partition depth p (number of code prefix bits). Clamped to
  /// [1, D], D = 20 the descriptor dimension: at those depths a p-block is
  /// an orthant (see BlockFilter).
  int depth = 12;
  /// Target expectation alpha of the statistical query, in (0, 1).
  double alpha = 0.8;
  /// Safety cap on the number of selected blocks.
  uint64_t max_blocks = 1 << 16;
};

/// Result of the filtering step: the code ranges (curve sections) to scan.
///
/// Cap semantics, identical for BlockFilter and ZOrderBlockFilter (they
/// share one template): blocks stop being emitted once `max_blocks` are
/// collected. The selection is then *partial but valid*: the
/// highest-probability blocks emitted so far, with `probability_mass` the
/// mass actually covered — possibly below alpha.
struct BlockSelection {
  /// Merged, sorted, disjoint code ranges [begin, end), end <= kCodeEnd.
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
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
  std::vector<uint32_t> prefixes;  ///< selected block prefixes, pre-merge
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
/// the Hilbert partition. Stateless: query methods are const and
/// thread-safe as long as concurrent callers use distinct SelectionScratch
/// objects (the default thread-local one qualifies).
///
/// At depth p <= D a p-block is an orthant (HilbertOrthants). Selection
/// works on those sign patterns directly, in closed form, and maps each
/// chosen pattern to its code prefix.
class BlockFilter {
 public:
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
};

/// Merges a list of depth-`depth` blocks (given by their prefixes) into
/// sorted disjoint code ranges; exposed for tests.
std::vector<std::pair<uint32_t, uint32_t>> MergeBlockRanges(
    std::vector<uint32_t> prefixes, int depth);

/// The same filtering rules over the Z-order (Morton) partition instead of
/// the Hilbert partition, sharing the exact same selection template — cap
/// accounting and partial-selection semantics are identical to
/// BlockFilter. Selection quality is identical in block count at equal
/// depth; what differs is the *clustering* of the selected blocks along
/// the curve — the property the paper's Hilbert choice buys (see
/// bench/ablation_curve_clustering).
class ZOrderBlockFilter {
 public:
  BlockSelection SelectStatistical(const fp::Fingerprint& query,
                                   const DistortionModel& model,
                                   const FilterOptions& options,
                                   SelectionScratch* scratch = nullptr) const;
  BlockSelection SelectRange(const fp::Fingerprint& query, double epsilon,
                             int depth, uint64_t max_blocks = 1 << 20,
                             SelectionScratch* scratch = nullptr) const;
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_FILTER_H_
