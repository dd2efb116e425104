#include "hilbert/block_tree.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace s3vcd::hilbert {

using internal::EntryPoint;
using internal::GrayCode;
using internal::IntraDirection;
using internal::RotateLeft;

namespace {

// One increment per Split keeps the whole-tree traversal volume visible
// (the k-NN search also reports nodes_visited per query; this counter
// aggregates across every traversal in the process).
obs::Counter* const g_splits =
    obs::MetricsRegistry::Global().GetCounter("hilbert.block_tree.splits");

// The level transform l = rotl(gc(w), d+1) ^ e sends Gray bit k to
// coordinate axis (k + d + 1) mod D, flipped by the reflection e.
int GrayBitAxis(int gray_bit, int d, int dims) {
  return (gray_bit + d + 1) % dims;
}

}  // namespace

BlockTree::Node BlockTree::Root() const {
  Node root;
  const int dims = curve_->dims();
  const uint32_t size = curve_->grid_size();
  for (int j = 0; j < dims; ++j) {
    root.lo[j] = 0;
    root.hi[j] = size;
  }
  return root;
}

void BlockTree::Split(const Node& node, Node* child0, Node* child1) const {
  const int dims = curve_->dims();
  const int order = curve_->order();
  S3VCD_DCHECK(node.depth < max_depth());
  g_splits->Increment();

  for (int b = 0; b < 2; ++b) {
    Node* child = (b == 0) ? child0 : child1;
    // Slim copy: only the `dims` active box axes (the arrays are kMaxDims
    // wide, so `*child = node` would also move the dead tail) plus the
    // curve state.
    for (int j = 0; j < dims; ++j) {
      child->lo[j] = node.lo[j];
      child->hi[j] = node.hi[j];
    }
    child->e = node.e;
    child->d = node.d;
    child->level = node.level;
    child->depth = node.depth + 1;
    child->prefix = node.prefix << 1;
    if (b == 1) {
      child->prefix.set_bit(0, true);
    }
    child->digit_prefix = (node.digit_prefix << 1) | static_cast<uint32_t>(b);
    child->s = node.s + 1;

    // Fixing one more index MSB of the level's digit pins one more Gray bit:
    // with s bits of the digit fixed, Gray bits at positions >= D - s are
    // determined (gc bit_k = i_k ^ i_{k+1}, both fixed for k >= D - s).
    const int gray_bit = dims - child->s;
    const uint32_t representative = child->digit_prefix
                                    << (dims - child->s);
    const uint32_t gray_value = (GrayCode(representative) >> gray_bit) & 1u;

    const int axis = GrayBitAxis(gray_bit, node.d, dims);
    const uint32_t coord_bit = gray_value ^ ((node.e >> axis) & 1u);

    // Halve the box along `axis`: the level-q coordinate bit selects which
    // half of the 2^(order - level) wide extent survives.
    const uint32_t half = uint32_t{1} << (order - 1 - node.level);
    S3VCD_DCHECK(child->hi[axis] - child->lo[axis] == 2 * half);
    if (coord_bit != 0) {
      child->lo[axis] += half;
    } else {
      child->hi[axis] -= half;
    }
    child->split_axis = axis;

    if (child->s == dims) {
      // Digit complete: advance the state machine to the next level.
      const uint32_t w = child->digit_prefix;
      child->e = node.e ^
                 RotateLeft(EntryPoint(w), (node.d + 1) % dims, dims);
      child->d = (node.d + IntraDirection(w, dims) + 1) % dims;
      child->level = node.level + 1;
      child->digit_prefix = 0;
      child->s = 0;
    }
  }
}

}  // namespace s3vcd::hilbert
