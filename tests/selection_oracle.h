// Test-side oracles for block selection. core::BlockFilter selects orthants
// in closed form; these are the general partition-tree walks it replaced,
// kept here to check it: the best-first walk, the per-node ComponentMass
// probability (the reference engine), the paper's eq. (4) threshold search
// and the box-distance range DFS. They run over hilbert::BlockTree or over
// ZOrderTree, the Z-order partition tree, which only the tests use, down to
// depth D at most, and name a block by its code prefix (the node's
// partition-key prefix, which has at most D bits there).

#ifndef S3VCD_TESTS_SELECTION_ORACLE_H_
#define S3VCD_TESTS_SELECTION_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/distortion_model.h"
#include "core/filter.h"
#include "fingerprint/fingerprint.h"
#include "hilbert/block_tree.h"
#include "hilbert/zorder.h"
#include "util/bitkey.h"
#include "util/rng.h"

namespace s3vcd::oracle {

using Node = hilbert::BlockTree::Node;

/// The binary partition tree of the Z-order curve, API-compatible with
/// hilbert::BlockTree (same Node type; the Hilbert state fields stay
/// unused). Split d halves axis d mod D at level d / D.
class ZOrderTree {
 public:
  using Node = oracle::Node;

  explicit ZOrderTree(const hilbert::ZOrderCurve& curve) : curve_(&curve) {}

  Node Root() const {
    Node root;
    for (int j = 0; j < curve_->dims(); ++j) {
      root.lo[j] = 0;
      root.hi[j] = curve_->grid_size();
    }
    return root;
  }

  void Split(const Node& node, Node* child0, Node* child1) const {
    const int axis = node.depth % curve_->dims();
    const int level = node.depth / curve_->dims();
    const uint32_t half = uint32_t{1} << (curve_->order() - 1 - level);
    for (int b = 0; b < 2; ++b) {
      Node* child = b == 0 ? child0 : child1;
      *child = node;
      child->depth = node.depth + 1;
      child->prefix = node.prefix << 1;
      child->prefix.set_bit(0, b == 1);
      if (b == 1) {
        child->lo[axis] += half;
      } else {
        child->hi[axis] -= half;
      }
      child->split_axis = axis;
    }
  }

  const hilbert::ZOrderCurve& curve() const { return *curve_; }

 private:
  const hilbert::ZOrderCurve* curve_;
};

/// Byte value of cell boundary `b` of an order-`order` grid: b * w - 0.5
/// (w = 2^(8 - order)), the grid edges extended to +/- infinity.
inline double BoundaryByte(uint32_t b, int order) {
  if (b == 0) {
    return -1e30;
  }
  if (b == (uint32_t{1} << order)) {
    return 1e30;
  }
  return static_cast<double>(b << (8 - order)) - 0.5;
}

/// The reference engine: the product over axes, in ascending order, of
/// DistortionModel::ComponentMass over the node's box.
template <typename Tree>
double NodeProb(const Tree& tree, const Node& n, const fp::Fingerprint& q,
                const core::DistortionModel& model) {
  const int order = tree.curve().order();
  double prob = 1.0;
  for (int j = 0; j < tree.curve().dims(); ++j) {
    prob *= model.ComponentMass(j, BoundaryByte(n.lo[j], order),
                                BoundaryByte(n.hi[j], order),
                                static_cast<double>(q[j]));
  }
  return prob;
}

/// The code prefix of a node of depth <= D.
inline uint32_t PrefixOf(const Node& node) {
  return static_cast<uint32_t>(node.prefix.low64());
}

/// The node reached from the root along the `depth` bits of `prefix`.
template <typename Tree>
Node Descend(const Tree& tree, uint32_t prefix, int depth) {
  Node node = tree.Root();
  for (int d = depth - 1; d >= 0; --d) {
    Node c0;
    Node c1;
    tree.Split(node, &c0, &c1);
    node = ((prefix >> d) & 1u) != 0 ? c1 : c0;
  }
  return node;
}

/// The depth-`depth` block prefixes covered by merged code ranges.
inline std::vector<uint32_t> BlocksOf(
    const std::vector<std::pair<uint32_t, uint32_t>>& ranges, int depth) {
  std::vector<uint32_t> blocks;
  const int shift = core::kCodeBits - depth;
  for (const auto& [begin, end] : ranges) {
    for (uint32_t p = begin >> shift; p < end >> shift; ++p) {
      blocks.push_back(p);
    }
  }
  return blocks;
}

/// An oracle selection: the emitted blocks in emission order.
struct Walk {
  std::vector<uint32_t> prefixes;
  std::vector<double> probs;
  double mass = 0;
};

/// The best-first walk: a max-heap of nodes by probability (ties by
/// creation order); a popped depth-`depth` node is emitted until the mass
/// reaches min(alpha, root (1 - 1e-9)) or `max_blocks` are emitted. Nodes
/// of probability <= 1e-18 are dropped. Emits blocks in decreasing
/// probability: a child's product never exceeds its parent's.
template <typename Tree>
Walk BestFirst(const Tree& tree, const fp::Fingerprint& q,
               const core::DistortionModel& model, double alpha, int depth,
               uint64_t max_blocks) {
  struct Entry {
    double prob;
    uint64_t seq;
    Node node;
    bool operator<(const Entry& o) const {
      return prob != o.prob ? prob < o.prob : seq > o.seq;
    }
  };
  Walk walk;
  std::priority_queue<Entry> heap;
  uint64_t seq = 0;
  const Node root = tree.Root();
  const double root_prob = NodeProb(tree, root, q, model);
  const double target = std::min(alpha, root_prob * (1.0 - 1e-9));
  heap.push({root_prob, seq++, root});
  while (!heap.empty() && walk.mass < target) {
    const Entry top = heap.top();
    heap.pop();
    if (top.node.depth == depth) {
      walk.prefixes.push_back(PrefixOf(top.node));
      walk.probs.push_back(top.prob);
      walk.mass += top.prob;
      if (walk.prefixes.size() >= max_blocks) {
        break;
      }
      continue;
    }
    Node c[2];
    tree.Split(top.node, &c[0], &c[1]);
    for (const Node& child : c) {
      const double p = NodeProb(tree, child, q, model);
      if (p > 1e-18) {
        heap.push({p, seq++, child});
      }
    }
  }
  return walk;
}

/// The paper's eq. (4): bisection on log t for the largest threshold t
/// whose block set {B : P(B) > t} still has mass >= alpha, each evaluation
/// a DFS of the tree pruned at probability t. A capped evaluation (over
/// `max_blocks` blocks) counts as reaching alpha.
template <typename Tree>
Walk ThresholdSearch(const Tree& tree, const fp::Fingerprint& q,
                     const core::DistortionModel& model, double alpha,
                     int depth, uint64_t max_blocks) {
  const auto evaluate = [&](double t, bool* capped) {
    Walk walk;
    *capped = false;
    std::vector<std::pair<double, Node>> stack;
    const Node root = tree.Root();
    const double root_prob = NodeProb(tree, root, q, model);
    if (root_prob > t) {
      stack.emplace_back(root_prob, root);
    }
    while (!stack.empty()) {
      const auto [prob, node] = stack.back();
      stack.pop_back();
      if (node.depth == depth) {
        walk.prefixes.push_back(PrefixOf(node));
        walk.probs.push_back(prob);
        walk.mass += prob;
        if (walk.prefixes.size() >= max_blocks) {
          *capped = true;
          break;
        }
        continue;
      }
      Node c[2];
      tree.Split(node, &c[0], &c[1]);
      for (const Node& child : c) {
        const double p = NodeProb(tree, child, q, model);
        if (p > t) {
          stack.emplace_back(p, child);
        }
      }
    }
    return walk;
  };
  double log_lo = std::log(1e-15);
  double log_hi = 0.0;
  double best_log_t = log_lo;
  for (int iter = 0; iter < 24; ++iter) {
    const double log_mid = 0.5 * (log_lo + log_hi);
    bool capped = false;
    const Walk walk = evaluate(std::exp(log_mid), &capped);
    if (capped || walk.mass >= alpha) {
      best_log_t = log_mid;
      log_lo = log_mid;
    } else {
      log_hi = log_mid;
    }
  }
  bool capped = false;
  return evaluate(std::exp(best_log_t), &capped);
}

/// Every depth-`depth` block whose box lies within `epsilon` of `q`, by a
/// DFS pruned on the direct (untabulated) box distance.
template <typename Tree>
std::vector<uint32_t> RangeBlocks(const Tree& tree, const fp::Fingerprint& q,
                                double epsilon, int depth) {
  const int order = tree.curve().order();
  const auto box_dist_sq = [&](const Node& n) {
    double acc = 0;
    for (int j = 0; j < tree.curve().dims(); ++j) {
      const double lo = BoundaryByte(n.lo[j], order);
      const double hi = BoundaryByte(n.hi[j], order);
      const double v = static_cast<double>(q[j]);
      if (v < lo) {
        acc += (lo - v) * (lo - v);
      } else if (v > hi) {
        acc += (v - hi) * (v - hi);
      }
    }
    return acc;
  };
  std::vector<uint32_t> prefixes;
  std::vector<Node> stack = {tree.Root()};
  while (!stack.empty()) {
    const Node n = stack.back();
    stack.pop_back();
    if (box_dist_sq(n) > epsilon * epsilon) {
      continue;
    }
    if (n.depth == depth) {
      prefixes.push_back(PrefixOf(n));
      continue;
    }
    Node c0;
    Node c1;
    tree.Split(n, &c0, &c1);
    stack.push_back(c0);
    stack.push_back(c1);
  }
  return prefixes;
}

/// Checks the orthant facts the closed-form selection relies on, down to
/// `depth` <= dims: every split halves its axis at cell grid/2, an axis the
/// path has not split yet, namely Orthants::SplitAxis(step); and
/// Orthants::Prefix of the node's sides (1 = upper half, step 1 the MSB) is
/// the node's prefix. Walks every path down to `exhaustive_depth`, then
/// `random_paths` random paths down to `depth`. Returns the first
/// violation, or "" if there is none.
template <typename Orthants, typename Tree>
std::string OrthantViolation(const Tree& tree, int depth,
                             int exhaustive_depth, int random_paths,
                             uint64_t seed) {
  const auto& curve = tree.curve();
  const uint32_t grid = curve.grid_size();
  const uint32_t mid = grid / 2;
  // Checks `child` of `parent`; returns its sides, or sets `error`.
  std::string error;
  const auto check = [&](const Node& parent, uint32_t parent_sides,
                         const Node& child) -> uint32_t {
    const std::string at = "depth " + std::to_string(child.depth) +
                           " prefix " + child.prefix.ToHex(child.depth);
    const int axis = Orthants::SplitAxis(child.depth);
    if (child.split_axis != axis) {
      error = at + ": split axis " + std::to_string(child.split_axis) +
              ", expected " + std::to_string(axis);
      return 0;
    }
    if (parent.lo[axis] != 0 || parent.hi[axis] != grid) {
      error = at + ": axis " + std::to_string(axis) + " split twice";
      return 0;
    }
    const bool upper = child.lo[axis] == mid && child.hi[axis] == grid;
    if (!upper && !(child.lo[axis] == 0 && child.hi[axis] == mid)) {
      error = at + ": split not at grid/2";
      return 0;
    }
    const uint32_t sides = (parent_sides << 1) | (upper ? 1u : 0u);
    if (Orthants::Prefix(sides) != PrefixOf(child)) {
      error = at + ": Prefix(sides) is " +
              std::to_string(Orthants::Prefix(sides));
    }
    return sides;
  };
  std::vector<std::pair<Node, uint32_t>> stack = {{tree.Root(), 0u}};
  while (!stack.empty() && error.empty()) {
    const auto [node, sides] = stack.back();
    stack.pop_back();
    if (node.depth == std::min(depth, exhaustive_depth)) {
      continue;
    }
    Node c[2];
    tree.Split(node, &c[0], &c[1]);
    for (const Node& child : c) {
      stack.emplace_back(child, check(node, sides, child));
    }
  }
  Rng rng(seed);
  for (int path = 0; path < random_paths && error.empty(); ++path) {
    Node node = tree.Root();
    uint32_t sides = 0;
    while (node.depth < depth && error.empty()) {
      Node c[2];
      tree.Split(node, &c[0], &c[1]);
      const Node& child = c[rng.UniformInt(0, 1)];
      sides = check(node, sides, child);
      node = child;
    }
  }
  return error;
}

}  // namespace s3vcd::oracle

#endif  // S3VCD_TESTS_SELECTION_ORACLE_H_
