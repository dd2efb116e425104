#include "hilbert/zorder.h"

#include <functional>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "core/distortion_model.h"
#include "core/filter.h"
#include "core/synthetic_db.h"
#include "selection_oracle.h"
#include "util/rng.h"

namespace s3vcd::hilbert {
namespace {

using oracle::ZOrderTree;

TEST(ZOrderCurveTest, KnownInterleaving2D) {
  // D=2, K=2, coords (x=01, y=10): MSB level: bits (x1=0, y1=1); LSB
  // level: (x0=1, y0=0) -> key = 0b0110 = 6.
  const ZOrderCurve curve(2, 2);
  uint32_t coords[2] = {1, 2};
  EXPECT_EQ(curve.Encode(coords).low64(), 0b0110u);
  uint32_t back[2] = {0, 0};
  curve.Decode(BitKey(0b0110), back);
  EXPECT_EQ(back[0], 1u);
  EXPECT_EQ(back[1], 2u);
}

TEST(ZOrderCurveTest, BijectiveOnSmallGrids) {
  for (auto [dims, order] : {std::pair{2, 4}, {3, 3}, {4, 2}, {5, 2}}) {
    const ZOrderCurve curve(dims, order);
    const uint64_t total = uint64_t{1} << (dims * order);
    std::map<std::vector<uint32_t>, uint64_t> seen;
    std::vector<uint32_t> coords(dims);
    BitKey key;
    for (uint64_t i = 0; i < total; ++i, key.Increment()) {
      curve.Decode(key, coords.data());
      ASSERT_TRUE(seen.emplace(coords, i).second)
          << "dims=" << dims << " duplicate at " << i;
      ASSERT_EQ(curve.Encode(coords.data()), key);
    }
  }
}

TEST(ZOrderCurveTest, PaperDimensionsRoundTrip) {
  const ZOrderCurve curve(20, 8);
  EXPECT_EQ(curve.key_bits(), 160);
  Rng rng(1);
  uint32_t coords[20];
  uint32_t back[20];
  for (int t = 0; t < 500; ++t) {
    for (auto& c : coords) {
      c = static_cast<uint32_t>(rng.UniformInt(0, 255));
    }
    curve.Decode(curve.Encode(coords), back);
    for (int j = 0; j < 20; ++j) {
      ASSERT_EQ(back[j], coords[j]);
    }
  }
}

TEST(ZOrderTreeTest, BlocksTileTheGridAndMatchKeyPrefixes) {
  const ZOrderCurve curve(3, 3);
  const ZOrderTree tree(curve);
  const int depth = 5;
  std::vector<ZOrderTree::Node> blocks;
  std::function<void(const ZOrderTree::Node&)> descend =
      [&](const ZOrderTree::Node& node) {
        if (node.depth == depth) {
          blocks.push_back(node);
          return;
        }
        ZOrderTree::Node c0;
        ZOrderTree::Node c1;
        tree.Split(node, &c0, &c1);
        descend(c0);
        descend(c1);
      };
  descend(tree.Root());
  ASSERT_EQ(blocks.size(), size_t{1} << depth);

  const uint64_t total = uint64_t{1} << curve.key_bits();
  const int shift = curve.key_bits() - depth;
  std::vector<uint32_t> coords(3);
  BitKey key;
  for (uint64_t i = 0; i < total; ++i, key.Increment()) {
    curve.Decode(key, coords.data());
    const uint64_t block_id = (key >> shift).low64();
    const auto& b = blocks[block_id];
    for (int j = 0; j < 3; ++j) {
      ASSERT_GE(coords[j], b.lo[j]);
      ASSERT_LT(coords[j], b.hi[j]);
    }
  }
}

// The Z-order side of the closed-form selection: the first D levels of the
// Morton tree are orthants split in axis order 0, 1, ..., D-1, and a
// block's prefix is its sides. Every path down to depth 10 and 2,000
// random paths down to depth 20, at every order 1-8.
TEST(ZOrderTreeTest, FirstDimsLevelsAreOrthants) {
  for (int order = 1; order <= 8; ++order) {
    const ZOrderCurve curve(20, order);
    const ZOrderTree tree(curve);
    EXPECT_EQ(oracle::OrthantViolation<core::ZOrderOrthants>(tree, 20, 10,
                                                           2000, 80 + order),
              "")
        << "order " << order;
  }
}

TEST(ZOrderFilterTest, StatisticalSelectionReachesAlpha) {
  const core::ZOrderBlockFilter filter;
  const core::GaussianDistortionModel model(18.0);
  Rng rng(2);
  for (int t = 0; t < 10; ++t) {
    const fp::Fingerprint q = core::UniformRandomFingerprint(&rng);
    core::FilterOptions options;
    options.alpha = 0.8;
    options.depth = 12;
    const core::BlockSelection sel =
        filter.SelectStatistical(q, model, options);
    EXPECT_GE(sel.probability_mass, 0.8 * 0.999);
  }
}

// Hilbert's locality advantage is classic in low dimension: blocks
// covering a disc merge into far fewer curve sections than with Morton
// interleaving. (At the paper's D=20 and practical depths the partitions
// split each axis at most once and the two orderings fragment almost
// identically -- measured in bench/ablation_curve_clustering.)
TEST(ZOrderFilterTest, HilbertClustersBetterThanMortonIn2D) {
  const HilbertCurve hcurve(2, 8);
  const ZOrderCurve zcurve(2, 8);
  const BlockTree htree(hcurve);
  const ZOrderTree ztree(zcurve);
  const int depth = 12;
  Rng rng(3);

  auto count_ranges = [&](auto&& tree, double cx, double cy, double r) {
    std::vector<uint32_t> prefixes;
    std::vector<BlockTree::Node> stack = {tree.Root()};
    while (!stack.empty()) {
      BlockTree::Node n = stack.back();
      stack.pop_back();
      // Min distance from the disc center to the box.
      double d2 = 0;
      const double pt[2] = {cx, cy};
      for (int j = 0; j < 2; ++j) {
        if (pt[j] < n.lo[j]) {
          d2 += (n.lo[j] - pt[j]) * (n.lo[j] - pt[j]);
        } else if (pt[j] > n.hi[j] - 1) {
          d2 += (pt[j] - (n.hi[j] - 1)) * (pt[j] - (n.hi[j] - 1));
        }
      }
      if (d2 > r * r) {
        continue;
      }
      if (n.depth == depth) {
        prefixes.push_back(oracle::PrefixOf(n));
        continue;
      }
      BlockTree::Node c0;
      BlockTree::Node c1;
      tree.Split(n, &c0, &c1);
      stack.push_back(c0);
      stack.push_back(c1);
    }
    return core::MergeBlockRanges(std::move(prefixes), depth).size();
  };

  size_t hilbert_ranges = 0;
  size_t morton_ranges = 0;
  for (int t = 0; t < 25; ++t) {
    const double cx = rng.Uniform(40, 215);
    const double cy = rng.Uniform(40, 215);
    const double r = rng.Uniform(15, 35);
    hilbert_ranges += count_ranges(htree, cx, cy, r);
    morton_ranges += count_ranges(ztree, cx, cy, r);
  }
  EXPECT_LT(hilbert_ranges, morton_ranges)
      << "2-D discs must fragment less along the Hilbert curve";
}

TEST(ZOrderFilterTest, ComparableFragmentationAtPaperDimension) {
  // At D=20 and p <= 20 each axis splits at most once; the two orderings
  // then induce nearly the same fragmentation.
  const core::BlockFilter hfilter;
  const core::ZOrderBlockFilter zfilter;
  const core::GaussianDistortionModel model(20.0);
  Rng rng(4);
  uint64_t hilbert_ranges = 0;
  uint64_t morton_ranges = 0;
  core::FilterOptions options;
  options.alpha = 0.9;
  options.depth = 16;
  for (int t = 0; t < 20; ++t) {
    const fp::Fingerprint q = core::UniformRandomFingerprint(&rng);
    hilbert_ranges += hfilter.SelectStatistical(q, model, options)
                          .ranges.size();
    morton_ranges += zfilter.SelectStatistical(q, model, options)
                         .ranges.size();
  }
  EXPECT_LT(hilbert_ranges, 2 * morton_ranges);
  EXPECT_LT(morton_ranges, 2 * hilbert_ranges);
}

}  // namespace
}  // namespace s3vcd::hilbert
