#ifndef S3VCD_HILBERT_BLOCK_TREE_H_
#define S3VCD_HILBERT_BLOCK_TREE_H_

#include <array>
#include <cstdint>

#include "hilbert/hilbert_curve.h"
#include "util/bitkey.h"

namespace s3vcd::hilbert {

/// The regular partition of the Hilbert curve into 2^p intervals induces a
/// partition of the grid into 2^p axis-aligned hyper-rectangular "p-blocks"
/// of equal volume (paper Section IV-A, Figure 2). BlockTree exposes this
/// partition as an implicit binary tree: the root covers the whole grid and
/// every split halves a node's curve interval — which, geometrically, halves
/// its bounding box along exactly one axis determined by the curve's
/// rotation state.
///
/// Each block's curve prefix addresses a contiguous fingerprint range in
/// the Hilbert-sorted database. The k-NN search descends this tree; the
/// selection filters use the closed orthant form of its first D levels
/// (core::HilbertOrthants, pinned against Split by block_tree_test).
class BlockTree {
 public:
  /// A node of the partition tree: a curve interval of 2^(K*D - depth) cells
  /// together with its exact bounding box.
  struct Node {
    /// Hilbert key prefix (depth bits, low-aligned): the node covers keys in
    /// [prefix << (KD - depth), (prefix + 1) << (KD - depth)).
    BitKey prefix;
    /// Number of prefix bits fixed so far (p).
    int depth = 0;

    /// Bounding box, inclusive lo / exclusive hi, in grid cells.
    std::array<uint32_t, kMaxDims> lo{};
    std::array<uint32_t, kMaxDims> hi{};
    /// Axis halved by the split that created this node; -1 for the root.
    int split_axis = -1;

    // --- Curve state machine (internal to the descent) ---
    uint32_t e = 0;          ///< reflection state of the current level
    int d = 0;               ///< rotation state of the current level
    int level = 0;           ///< completed levels (q)
    uint32_t digit_prefix = 0;  ///< s index bits fixed within current digit
    int s = 0;               ///< number of digit bits fixed, in [0, D)

    /// First key covered by this node (prefix << (KD - depth)).
    BitKey RangeBegin(int key_bits) const {
      return prefix << (key_bits - depth);
    }
    /// One past the last key covered.
    BitKey RangeEnd(int key_bits) const {
      BitKey p = prefix;
      p.Increment();
      return p << (key_bits - depth);
    }
  };

  /// The tree is a view over `curve`; the curve must outlive it.
  explicit BlockTree(const HilbertCurve& curve) : curve_(&curve) {}

  /// Root node: the full grid, depth 0.
  Node Root() const;

  /// Splits `node` into its two curve-order halves. `child0` precedes
  /// `child1` on the curve. Requires node.depth < dims * order.
  void Split(const Node& node, Node* child0, Node* child1) const;

  const HilbertCurve& curve() const { return *curve_; }
  /// Maximum depth: dims * order (blocks become single cells).
  int max_depth() const { return curve_->key_bits(); }

 private:
  const HilbertCurve* curve_;
};

}  // namespace s3vcd::hilbert

#endif  // S3VCD_HILBERT_BLOCK_TREE_H_
