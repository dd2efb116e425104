#include "hilbert/block_tree.h"

#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "hilbert/hilbert_curve.h"
#include "selection_oracle.h"
#include "util/bitkey.h"
#include "util/rng.h"

namespace s3vcd::hilbert {
namespace {

uint64_t BoxVolume(const BlockTree::Node& node, int dims) {
  uint64_t v = 1;
  for (int j = 0; j < dims; ++j) {
    v *= node.hi[j] - node.lo[j];
  }
  return v;
}

bool BoxContains(const BlockTree::Node& node, int dims,
                 const std::vector<uint32_t>& p) {
  for (int j = 0; j < dims; ++j) {
    if (p[j] < node.lo[j] || p[j] >= node.hi[j]) {
      return false;
    }
  }
  return true;
}

// Collects all nodes at the given depth by full descent.
std::vector<BlockTree::Node> AllBlocksAtDepth(const BlockTree& tree,
                                              int depth) {
  std::vector<BlockTree::Node> out;
  std::function<void(const BlockTree::Node&)> descend =
      [&](const BlockTree::Node& node) {
        if (node.depth == depth) {
          out.push_back(node);
          return;
        }
        BlockTree::Node c0;
        BlockTree::Node c1;
        tree.Split(node, &c0, &c1);
        descend(c0);
        descend(c1);
      };
  descend(tree.Root());
  return out;
}

class BlockPartitionTest
    : public testing::TestWithParam<std::tuple<int, int, int>> {};

// For every cell of the grid: the block whose curve prefix matches the
// cell's key must contain the cell, and blocks must exactly tile the grid.
TEST_P(BlockPartitionTest, BlocksTileTheGridAndMatchKeyPrefixes) {
  const auto [dims, order, depth] = GetParam();
  const HilbertCurve curve(dims, order);
  if (depth > curve.key_bits()) {
    GTEST_SKIP() << "depth exceeds key bits";
  }
  const BlockTree tree(curve);
  const auto blocks = AllBlocksAtDepth(tree, depth);
  ASSERT_EQ(blocks.size(), size_t{1} << depth);

  // Equal volume, curve-ordered prefixes.
  const uint64_t expected_volume =
      (uint64_t{1} << (dims * order)) >> depth;
  for (size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(BoxVolume(blocks[i], dims), expected_volume);
    EXPECT_EQ(blocks[i].prefix, BitKey(i)) << "blocks out of curve order";
  }

  // Exact tiling + prefix consistency, by exhaustive cell walk.
  const uint64_t total = uint64_t{1} << (dims * order);
  ASSERT_LE(total, uint64_t{1} << 18);
  std::vector<uint32_t> coords(dims);
  const int shift = curve.key_bits() - depth;
  BitKey key;
  for (uint64_t i = 0; i < total; ++i, key.Increment()) {
    curve.Decode(key, coords.data());
    const uint64_t block_id = (key >> shift).low64();
    ASSERT_TRUE(BoxContains(blocks[block_id], dims, coords))
        << "cell with key " << i << " outside its prefix block "
        << block_id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockPartitionTest,
    testing::Values(std::make_tuple(2, 4, 3), std::make_tuple(2, 4, 5),
                    std::make_tuple(2, 4, 8), std::make_tuple(2, 8, 9),
                    std::make_tuple(3, 3, 4), std::make_tuple(3, 3, 7),
                    std::make_tuple(3, 4, 5), std::make_tuple(4, 3, 6),
                    std::make_tuple(5, 2, 7), std::make_tuple(6, 2, 9),
                    std::make_tuple(2, 2, 4), std::make_tuple(4, 2, 8)),
    [](const testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      return "D" + std::to_string(std::get<0>(info.param)) + "K" +
             std::to_string(std::get<1>(info.param)) + "p" +
             std::to_string(std::get<2>(info.param));
    });

TEST(BlockTreeTest, RootCoversGrid) {
  const HilbertCurve curve(20, 8);
  const BlockTree tree(curve);
  const auto root = tree.Root();
  EXPECT_EQ(root.depth, 0);
  for (int j = 0; j < 20; ++j) {
    EXPECT_EQ(root.lo[j], 0u);
    EXPECT_EQ(root.hi[j], 256u);
  }
}

TEST(BlockTreeTest, SplitHalvesExactlyOneAxis) {
  const HilbertCurve curve(7, 5);
  const BlockTree tree(curve);
  Rng rng(11);
  BlockTree::Node node = tree.Root();
  for (int step = 0; step < 30; ++step) {
    BlockTree::Node c0;
    BlockTree::Node c1;
    tree.Split(node, &c0, &c1);
    for (const auto* child : {&c0, &c1}) {
      int changed = 0;
      for (int j = 0; j < 7; ++j) {
        const uint64_t parent_extent = node.hi[j] - node.lo[j];
        const uint64_t child_extent = child->hi[j] - child->lo[j];
        EXPECT_GE(child->lo[j], node.lo[j]);
        EXPECT_LE(child->hi[j], node.hi[j]);
        if (child_extent != parent_extent) {
          ++changed;
          EXPECT_EQ(child_extent * 2, parent_extent);
          EXPECT_EQ(j, child->split_axis);
        }
      }
      EXPECT_EQ(changed, 1);
    }
    EXPECT_EQ(BoxVolume(c0, 7) + BoxVolume(c1, 7), BoxVolume(node, 7));
    node = rng.Bernoulli(0.5) ? c0 : c1;
  }
}

// Paper configuration: descend along a random point's prefix path and check
// the point stays inside every ancestor's box, and that the key range of
// the final node brackets the point's key.
TEST(BlockTreeTest, PaperConfigPrefixPathContainsPoint) {
  const HilbertCurve curve(20, 8);
  const BlockTree tree(curve);
  Rng rng(321);
  std::vector<uint32_t> coords(20);
  for (int trial = 0; trial < 200; ++trial) {
    for (int j = 0; j < 20; ++j) {
      coords[j] = static_cast<uint32_t>(rng.UniformInt(0, 255));
    }
    const BitKey key = curve.Encode(coords.data());
    BlockTree::Node node = tree.Root();
    const int max_depth = 48;
    for (int depth = 1; depth <= max_depth; ++depth) {
      BlockTree::Node c0;
      BlockTree::Node c1;
      tree.Split(node, &c0, &c1);
      const bool bit = key.bit(curve.key_bits() - depth);
      node = bit ? c1 : c0;
      ASSERT_TRUE(BoxContains(node, 20, coords))
          << "trial " << trial << " depth " << depth;
      ASSERT_TRUE(node.RangeBegin(curve.key_bits()) <= key &&
                  key < node.RangeEnd(curve.key_bits()))
          << "trial " << trial << " depth " << depth;
    }
  }
}

// The facts the closed-form block selection relies on (core/filter.cc): at
// depths p <= D = 20 every split halves a fresh axis at cell grid/2, in
// the order core::HilbertOrthants::SplitAxis gives on every path, and
// HilbertOrthants::Prefix maps a block's sides to its prefix. Every path
// down to depth 10 and 2,000 random paths down to depth 20, at every order
// 1-8.
TEST(BlockTreeTest, FirstDimsLevelsAreOrthants) {
  for (int order = 1; order <= 8; ++order) {
    const HilbertCurve curve(20, order);
    const BlockTree tree(curve);
    EXPECT_EQ(oracle::OrthantViolation<core::HilbertOrthants>(
                  tree, 20, 10, 2000, 40 + order),
              "")
        << "order " << order;
  }
  // The axis order the level-0 Gray-code rule gives: 0, D-1, ..., 1.
  EXPECT_EQ(core::HilbertOrthants::SplitAxis(1), 0);
  EXPECT_EQ(core::HilbertOrthants::SplitAxis(2), 19);
  EXPECT_EQ(core::HilbertOrthants::SplitAxis(20), 1);
}

TEST(BlockTreeTest, RangeBeginEndAreContiguousAcrossSiblings) {
  const HilbertCurve curve(5, 4);
  const BlockTree tree(curve);
  const auto blocks = AllBlocksAtDepth(tree, 9);
  for (size_t i = 0; i + 1 < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i].RangeEnd(curve.key_bits()),
              blocks[i + 1].RangeBegin(curve.key_bits()));
  }
  EXPECT_TRUE(blocks.front().RangeBegin(curve.key_bits()).is_zero());
}

}  // namespace
}  // namespace s3vcd::hilbert
