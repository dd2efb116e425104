#include "core/filter.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <utility>

#include "hilbert/gray_code.h"
#include "util/logging.h"

namespace s3vcd::core {

uint32_t HilbertOrthants::Prefix(uint32_t sides) {
  // At level 0 the s-th split fixes coordinate bit c_s = i_s ^ i_(s-1) of
  // the curve digit i, so i_s = c_s ^ i_(s-1).
  return hilbert::internal::GrayCodeInverse(sides);
}

SelectionScratch& ThreadLocalSelectionScratch() {
  thread_local SelectionScratch scratch;
  return scratch;
}

uint64_t SelectionScratch::ApproxBytes() const {
  return heap.capacity() * sizeof(std::pair<double, uint32_t>) +
         prefixes.capacity() * sizeof(uint32_t) +
         probs.capacity() * sizeof(double);
}

namespace {

// Byte components of distorted fingerprints are clamped to [0, 255], so the
// grid-edge cells absorb the entire tail of the distortion density: the
// lowest cell represents (-inf, lo+w) and the highest [hi-w, +inf).
constexpr double kInfinityBytes = 1e30;

// The quantization-interval convention, shared by the statistical and the
// geometric filter: a quantized byte value b represents the continuous
// interval [b - 0.5, b + 0.5), so a cell range [lo, hi) in cells maps to
// the byte interval [lo * w - 0.5, hi * w - 0.5) with w the cell width in
// bytes, the grid edges extended to +/- infinity (tail absorption). The
// middle cell boundary grid/2 therefore sits at byte 127.5 at every order.
constexpr double kMidByte = 127.5;

void MergeBlockRangesInto(std::vector<uint32_t>* prefixes, int depth,
                          std::vector<std::pair<uint32_t, uint32_t>>* ranges) {
  std::sort(prefixes->begin(), prefixes->end());
  ranges->clear();
  const int shift = kCodeBits - depth;
  for (const uint32_t prefix : *prefixes) {
    const uint32_t begin = prefix << shift;
    const uint32_t end = (prefix + 1) << shift;
    if (!ranges->empty() && ranges->back().second == begin) {
      ranges->back().second = end;
    } else {
      ranges->emplace_back(begin, end);
    }
  }
}

// Sign patterns are packed MSB-first: bit depth - s holds the side of the
// s-th split axis (1 = upper half), the layout Orthants::Prefix reads.
uint32_t StepBit(int depth, int step) {
  return uint32_t{1} << (depth - step);
}

template <typename Orthants>
BlockSelection SelectStatisticalImpl(const fp::Fingerprint& query,
                                     const DistortionModel& model,
                                     const FilterOptions& options,
                                     SelectionScratch* scratch) {
  S3VCD_CHECK(options.alpha > 0 && options.alpha < 1);
  SelectionScratch* s =
      scratch != nullptr ? scratch : &ThreadLocalSelectionScratch();
  constexpr int dims = fp::kDims;
  const int depth = std::clamp(options.depth, 1, dims);

  // A block's probability is the product, in ascending axis order, of one
  // CDF difference per axis: the whole line on unsplit axes, a half on
  // split ones. `best` holds the likelier half on split axes, `other` the
  // flipped half.
  std::array<double, fp::kDims> best{};
  std::array<double, fp::kDims> other{};
  std::array<double, fp::kDims> lo_cdf{};
  std::array<double, fp::kDims> hi_cdf{};
  double root = 1.0;
  for (int j = 0; j < dims; ++j) {
    const double q = static_cast<double>(query[j]);
    lo_cdf[j] = model.ComponentCdf(j, -kInfinityBytes, q);
    hi_cdf[j] = model.ComponentCdf(j, kInfinityBytes, q);
    best[j] = hi_cdf[j] - lo_cdf[j];
    root *= best[j];
  }

  // A flip moves one split axis to its less likely side, at cost
  // log(max/min) of its two halves; a side of zero mass is never taken.
  // Flips are sorted by cost, ties by step, for the sorted-subset
  // enumeration below.
  struct Flip {
    double cost;
    uint32_t step_bit;
    int axis;
  };
  std::array<Flip, fp::kDims> flips{};
  int num_flips = 0;
  uint32_t best_sides = 0;
  for (int step = 1; step <= depth; ++step) {
    const int axis = Orthants::SplitAxis(step);
    const double q = static_cast<double>(query[axis]);
    const double mid = model.ComponentCdf(axis, kMidByte, q);
    const double lower = mid - lo_cdf[axis];
    const double upper = hi_cdf[axis] - mid;
    const bool upper_best = upper > lower;
    if (upper_best) {
      best_sides |= StepBit(depth, step);
    }
    best[axis] = upper_best ? upper : lower;
    other[axis] = upper_best ? lower : upper;
    if (other[axis] > 0) {
      // A difference of logs stays finite even when the ratio would
      // overflow (a subnormal half).
      flips[num_flips++] = {std::log(best[axis]) - std::log(other[axis]),
                            StepBit(depth, step), axis};
    }
  }
  std::stable_sort(flips.begin(), flips.begin() + num_flips,
                   [](const Flip& a, const Flip& b) { return a.cost < b.cost; });

  // The achievable mass inside the grid may be below alpha (query near the
  // space border with a wide model): target what is achievable.
  const double target = std::min(options.alpha, root * (1.0 - 1e-9));

  // Sorted-subset enumeration of flip sets in increasing total cost. A set
  // is a bitmask over the sorted flips; its highest member `last` gives two
  // successors: add flip last + 1, or replace last with last + 1. Every set
  // is reached exactly once and no successor costs less than its parent, so
  // a min-heap pops sets in cost order, i.e. blocks in decreasing
  // probability.
  BlockSelection selection;
  s->prefixes.clear();
  s->probs.clear();
  s->heap.clear();
  s->heap.emplace_back(0.0, 0u);
  const auto cheaper_first = std::greater<std::pair<double, uint32_t>>();
  double total = 0;
  while (!s->heap.empty() && total < target) {
    std::pop_heap(s->heap.begin(), s->heap.end(), cheaper_first);
    const auto [cost, set] = s->heap.back();
    s->heap.pop_back();
    ++selection.nodes_visited;

    uint32_t sides = best_sides;
    uint32_t flipped_axes = 0;
    for (uint32_t rest = set; rest != 0; rest &= rest - 1) {
      const Flip& f = flips[__builtin_ctz(rest)];
      sides ^= f.step_bit;
      flipped_axes |= uint32_t{1} << f.axis;
    }
    double prob = 1.0;
    for (int j = 0; j < dims; ++j) {
      prob *= ((flipped_axes >> j) & 1u) != 0 ? other[j] : best[j];
    }
    s->prefixes.push_back(Orthants::Prefix(sides));
    s->probs.push_back(prob);
    total += prob;
    if (s->prefixes.size() >= options.max_blocks) {
      break;  // Partial selection: the highest-probability blocks so far.
    }

    const int next = set == 0 ? 0 : 32 - __builtin_clz(set);
    if (next < num_flips) {
      const uint32_t next_bit = uint32_t{1} << next;
      s->heap.emplace_back(cost + flips[next].cost, set | next_bit);
      std::push_heap(s->heap.begin(), s->heap.end(), cheaper_first);
      if (set != 0) {
        const uint32_t last_bit = next_bit >> 1;
        s->heap.emplace_back(cost - flips[next - 1].cost + flips[next].cost,
                             (set ^ last_bit) | next_bit);
        std::push_heap(s->heap.begin(), s->heap.end(), cheaper_first);
      }
    }
  }
  // Flip costs can order blocks whose products tie to within rounding
  // differently from the products themselves, so the running total depends
  // on that rounding. Report the mass summed in decreasing probability
  // instead: it is then the same bits whatever the order of the ties.
  std::sort(s->probs.begin(), s->probs.end(), std::greater<double>());
  for (const double prob : s->probs) {
    selection.probability_mass += prob;
  }
  selection.num_blocks = s->prefixes.size();
  MergeBlockRangesInto(&s->prefixes, depth, &selection.ranges);
  return selection;
}

template <typename Orthants>
BlockSelection SelectRangeImpl(const fp::Fingerprint& query, double epsilon,
                               int depth, uint64_t max_blocks,
                               SelectionScratch* scratch) {
  S3VCD_CHECK(epsilon >= 0);
  SelectionScratch* s =
      scratch != nullptr ? scratch : &ThreadLocalSelectionScratch();
  const int clamped_depth = std::clamp(depth, 1, fp::kDims);
  const double eps_sq = epsilon * epsilon;

  // An orthant's squared distance to the query sums (q - 127.5)^2 over the
  // split axes where it lies on the far side; every other axis spans the
  // query. The query side of step s is `query_sides` bit depth - s.
  std::array<double, fp::kDims> far_sq{};
  uint32_t query_sides = 0;
  for (int step = 1; step <= clamped_depth; ++step) {
    const double d =
        static_cast<double>(query[Orthants::SplitAxis(step)]) - kMidByte;
    far_sq[step - 1] = d * d;
    if (d > 0) {
      query_sides |= StepBit(clamped_depth, step);
    }
  }

  // Depth-first over the split steps, pruning a partial pattern once its
  // penalty exceeds epsilon^2; returns false when the block cap fires.
  BlockSelection selection;
  s->prefixes.clear();
  const auto descend = [&](const auto& self, int step, uint32_t sides,
                           double penalty) -> bool {
    ++selection.nodes_visited;
    if (step > clamped_depth) {
      s->prefixes.push_back(Orthants::Prefix(sides));
      return s->prefixes.size() < max_blocks;
    }
    const uint32_t near_side = (query_sides >> (clamped_depth - step)) & 1u;
    if (!self(self, step + 1, (sides << 1) | near_side, penalty)) {
      return false;
    }
    const double far_penalty = penalty + far_sq[step - 1];
    return far_penalty > eps_sq ||
           self(self, step + 1, (sides << 1) | (near_side ^ 1u),
                far_penalty);
  };
  descend(descend, 1, 0u, 0.0);
  selection.num_blocks = s->prefixes.size();
  MergeBlockRangesInto(&s->prefixes, clamped_depth, &selection.ranges);
  return selection;
}

}  // namespace

std::vector<std::pair<uint32_t, uint32_t>> MergeBlockRanges(
    std::vector<uint32_t> prefixes, int depth) {
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  MergeBlockRangesInto(&prefixes, depth, &ranges);
  return ranges;
}

BlockSelection BlockFilter::SelectStatistical(
    const fp::Fingerprint& query, const DistortionModel& model,
    const FilterOptions& options, SelectionScratch* scratch) const {
  return SelectStatisticalImpl<HilbertOrthants>(query, model, options,
                                                scratch);
}

BlockSelection BlockFilter::SelectRange(const fp::Fingerprint& query,
                                        double epsilon, int depth,
                                        uint64_t max_blocks,
                                        SelectionScratch* scratch) const {
  return SelectRangeImpl<HilbertOrthants>(query, epsilon, depth, max_blocks,
                                          scratch);
}

BlockSelection ZOrderBlockFilter::SelectStatistical(
    const fp::Fingerprint& query, const DistortionModel& model,
    const FilterOptions& options, SelectionScratch* scratch) const {
  return SelectStatisticalImpl<ZOrderOrthants>(query, model, options,
                                               scratch);
}

BlockSelection ZOrderBlockFilter::SelectRange(const fp::Fingerprint& query,
                                              double epsilon, int depth,
                                              uint64_t max_blocks,
                                              SelectionScratch* scratch) const {
  return SelectRangeImpl<ZOrderOrthants>(query, epsilon, depth, max_blocks,
                                         scratch);
}

}  // namespace s3vcd::core
