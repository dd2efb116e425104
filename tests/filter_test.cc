#include "core/filter.h"

#include <set>

#include <gtest/gtest.h>

#include "core/distortion_model.h"
#include "core/sorted_run.h"
#include "core/synthetic_db.h"
#include "hilbert/block_tree.h"
#include "hilbert/hilbert_curve.h"
#include "selection_oracle.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

TEST(MergeBlockRangesTest, MergesAdjacentAndSorts) {
  // Depth 4 -> each block spans 2^16 codes.
  std::vector<uint32_t> prefixes = {5, 3, 4, 9};
  const auto ranges = MergeBlockRanges(std::move(prefixes), 4);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].first, 3u << 16);
  EXPECT_EQ(ranges[0].second, 6u << 16);
  EXPECT_EQ(ranges[1].first, 9u << 16);
  EXPECT_EQ(ranges[1].second, 10u << 16);
}

TEST(MergeBlockRangesTest, LastBlockEndIsTheCodeEnd) {
  std::vector<uint32_t> prefixes = {15};  // last block at depth 4
  const auto ranges = MergeBlockRanges(std::move(prefixes), 4);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].second, kCodeEnd);
}

class FilterFixture : public testing::Test {
 protected:
  FilterFixture() : curve_(fp::kDims, 8), tree_(curve_) {}

  hilbert::HilbertCurve curve_;
  BlockFilter filter_;
  hilbert::BlockTree tree_;  ///< for the test-side oracles
};

TEST_F(FilterFixture, StatisticalSelectionReachesAlpha) {
  Rng rng(1);
  const GaussianDistortionModel model(15.0);
  for (int trial = 0; trial < 20; ++trial) {
    const fp::Fingerprint q = UniformRandomFingerprint(&rng);
    FilterOptions options;
    options.alpha = 0.85;
    options.depth = 10;
    const BlockSelection sel = filter_.SelectStatistical(q, model, options);
    EXPECT_GE(sel.probability_mass, 0.85 * 0.999);
    EXPECT_GE(sel.num_blocks, 1u);
    EXPECT_LE(sel.num_blocks, uint64_t{1} << 10);
  }
}

TEST_F(FilterFixture, HigherAlphaSelectsMoreMass) {
  Rng rng(2);
  const GaussianDistortionModel model(20.0);
  const fp::Fingerprint q = UniformRandomFingerprint(&rng);
  FilterOptions options;
  options.depth = 12;
  double prev_mass = 0;
  uint64_t prev_blocks = 0;
  for (double alpha : {0.3, 0.5, 0.7, 0.9, 0.99}) {
    options.alpha = alpha;
    const BlockSelection sel = filter_.SelectStatistical(q, model, options);
    EXPECT_GE(sel.probability_mass, prev_mass - 1e-12);
    EXPECT_GE(sel.num_blocks, prev_blocks);
    prev_mass = sel.probability_mass;
    prev_blocks = sel.num_blocks;
  }
}

TEST_F(FilterFixture, RangesAreSortedAndDisjoint) {
  Rng rng(3);
  const GaussianDistortionModel model(18.0);
  for (int trial = 0; trial < 10; ++trial) {
    const fp::Fingerprint q = UniformRandomFingerprint(&rng);
    FilterOptions options;
    options.alpha = 0.9;
    options.depth = 14;
    const BlockSelection sel = filter_.SelectStatistical(q, model, options);
    for (size_t i = 0; i < sel.ranges.size(); ++i) {
      EXPECT_LT(sel.ranges[i].first, sel.ranges[i].second);
      if (i > 0) {
        EXPECT_LT(sel.ranges[i - 1].second, sel.ranges[i].first)
            << "adjacent ranges must have been merged";
      }
    }
  }
}

TEST_F(FilterFixture, QueryOwnCellIsSelectedForHighAlpha) {
  // The query's own position carries the highest density, so with high
  // alpha its block must be part of the selection.
  Rng rng(4);
  const GaussianDistortionModel model(10.0);
  for (int trial = 0; trial < 20; ++trial) {
    const fp::Fingerprint q = UniformRandomFingerprint(&rng);
    const uint32_t code = OrthantCode(q);
    FilterOptions options;
    options.alpha = 0.95;
    options.depth = 8;
    const BlockSelection sel = filter_.SelectStatistical(q, model, options);
    bool covered = false;
    for (const auto& [begin, end] : sel.ranges) {
      if (begin <= code && code < end) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "trial " << trial;
  }
}

TEST_F(FilterFixture, ThresholdSearchAgreesWithBestFirst) {
  // The paper's eq. (4) threshold search (a test-side oracle) against the
  // closed form: near-minimal, it may overshoot, but not drastically.
  Rng rng(5);
  const GaussianDistortionModel model(20.0);
  for (int trial = 0; trial < 5; ++trial) {
    const fp::Fingerprint q = UniformRandomFingerprint(&rng);
    FilterOptions options;
    options.alpha = 0.8;
    options.depth = 10;
    const BlockSelection a = filter_.SelectStatistical(q, model, options);
    const oracle::Walk b = oracle::ThresholdSearch(
        tree_, q, model, options.alpha, options.depth, options.max_blocks);
    EXPECT_GE(b.mass, 0.8 * 0.98);
    EXPECT_LE(b.prefixes.size(), 4 * a.num_blocks + 8);
  }
}

TEST_F(FilterFixture, BestFirstEmitsMinimalBlockCount) {
  // The closed form emits blocks in decreasing probability, so no smaller
  // set can reach alpha. Verify against the eq. (4) threshold oracle, which
  // enumerates by a different route.
  Rng rng(6);
  const GaussianDistortionModel model(25.0);
  const fp::Fingerprint q = UniformRandomFingerprint(&rng);
  FilterOptions options;
  options.alpha = 0.7;
  options.depth = 9;
  const BlockSelection a = filter_.SelectStatistical(q, model, options);
  const oracle::Walk b = oracle::ThresholdSearch(
      tree_, q, model, options.alpha, options.depth, options.max_blocks);
  EXPECT_LE(a.num_blocks, b.prefixes.size() + 1);
}

TEST_F(FilterFixture, RangeFilterCoversSphereBlocks) {
  // Every grid cell within epsilon of the query must fall inside a
  // selected range (checked by sampling points on/inside the sphere).
  Rng rng(7);
  const double epsilon = 60.0;
  for (int trial = 0; trial < 10; ++trial) {
    fp::Fingerprint q;
    for (int j = 0; j < fp::kDims; ++j) {
      q[j] = static_cast<uint8_t>(rng.UniformInt(60, 195));
    }
    const BlockSelection sel = filter_.SelectRange(q, epsilon, 12);
    ASSERT_GE(sel.num_blocks, 1u);
    for (int s = 0; s < 50; ++s) {
      // A random point inside the ball.
      const fp::Fingerprint p = DistortFingerprint(q, epsilon / 10.0, &rng);
      if (fp::Distance(p, q) > epsilon) {
        continue;
      }
      const uint32_t code = OrthantCode(p);
      bool covered = false;
      for (const auto& [begin, end] : sel.ranges) {
        if (begin <= code && code < end) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "in-ball point escaped the range filter";
    }
  }
}

TEST_F(FilterFixture, RangeFilterPrunesFarBlocks) {
  // A generic (off-boundary) query: small balls must exclude the blocks on
  // the wrong side of the early splits. (A query exactly on the first
  // split planes would intersect every block -- the curse-of-dimensionality
  // effect the paper describes -- so we use a random query here.)
  Rng rng(8);
  const fp::Fingerprint q = UniformRandomFingerprint(&rng);
  const BlockSelection tight = filter_.SelectRange(q, 10.0, 10);
  const BlockSelection wide = filter_.SelectRange(q, 200.0, 10);
  EXPECT_LT(tight.num_blocks, wide.num_blocks);
  EXPECT_LT(tight.num_blocks, uint64_t{1} << 10)
      << "a small ball must not select the whole space";
}

TEST_F(FilterFixture, CenteredQueryIntersectsEveryBlock) {
  // The pathological illustration of the paper's Section V-A argument: a
  // query sitting on the first split planes intersects all 2^p blocks even
  // for a small radius, because each axis contributes at most 1 to the
  // min distance.
  fp::Fingerprint q;
  q.fill(128);
  const BlockSelection sel = filter_.SelectRange(q, 10.0, 10);
  EXPECT_EQ(sel.num_blocks, uint64_t{1} << 10);
}

TEST_F(FilterFixture, DepthClampingIsSafe) {
  // Depths outside [1, D] are clamped to it, for both filters: an absurd
  // depth selects exactly what depth D selects, within the block budget,
  // and a non-positive one what depth 1 selects.
  Rng rng(9);
  const GaussianDistortionModel model(20.0);
  const fp::Fingerprint q = UniformRandomFingerprint(&rng);
  FilterOptions options;
  options.alpha = 0.5;
  for (const auto& [asked, served] :
       {std::pair{100000, fp::kDims}, std::pair{fp::kDims + 1, fp::kDims},
        std::pair{0, 1}, std::pair{-3, 1}}) {
    options.depth = asked;
    const BlockSelection sel = filter_.SelectStatistical(q, model, options);
    options.depth = served;
    const BlockSelection want = filter_.SelectStatistical(q, model, options);
    EXPECT_EQ(sel.ranges, want.ranges) << "depth " << asked;
    EXPECT_EQ(sel.probability_mass, want.probability_mass);
    EXPECT_GE(sel.probability_mass, 0.5);
    EXPECT_LE(sel.num_blocks, options.max_blocks);
    EXPECT_EQ(filter_.SelectRange(q, 30.0, asked).ranges,
              filter_.SelectRange(q, 30.0, served).ranges)
        << "range depth " << asked;
  }
}

TEST_F(FilterFixture, MaxBlocksCapRespected) {
  Rng rng(10);
  const GaussianDistortionModel model(40.0);
  const fp::Fingerprint q = UniformRandomFingerprint(&rng);
  FilterOptions options;
  options.alpha = 0.999;
  options.depth = 16;
  options.max_blocks = 32;
  const BlockSelection sel = filter_.SelectStatistical(q, model, options);
  EXPECT_LE(sel.num_blocks, 32u);
}

}  // namespace
}  // namespace s3vcd::core
