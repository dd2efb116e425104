// Differential tests of the closed-form block selection against the
// test-side partition-tree oracles (tests/selection_oracle.h): the
// statistical enumerator must select the blocks the best-first walk
// selects, with the same probability_mass bits, and the range DFS over
// orthants the blocks the box-distance DFS selects, on both curves, at
// every depth in [1, D]. Also pins the quantization-interval convention
// shared by the two filters and the reuse of the per-thread scratch. Runs
// under TSan, ASan and UBSan via tools/run_tsan_tests.sh.

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/distortion_model.h"
#include "core/filter.h"
#include "core/synthetic_db.h"
#include "hilbert/block_tree.h"
#include "hilbert/hilbert_curve.h"
#include "hilbert/zorder.h"
#include "selection_oracle.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

// Bit-exact equality of two selections: EXPECT_EQ on the doubles is
// intentional.
void ExpectSelectionsIdentical(const BlockSelection& a, const BlockSelection& b,
                               const char* context) {
  EXPECT_EQ(a.num_blocks, b.num_blocks) << context;
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << context;
  EXPECT_EQ(a.probability_mass, b.probability_mass) << context;
  ASSERT_EQ(a.ranges.size(), b.ranges.size()) << context;
  for (size_t i = 0; i < a.ranges.size(); ++i) {
    EXPECT_EQ(a.ranges[i].first, b.ranges[i].first) << context;
    EXPECT_EQ(a.ranges[i].second, b.ranges[i].second) << context;
  }
}

bool TiesWith(double p, double last) {
  return std::abs(p - last) <= 1e-12 * std::max(std::abs(p), std::abs(last));
}

// Checks one closed-form statistical selection against the best-first
// oracle over the same partition tree:
//  - probability_mass is bit-equal to the oracle's products over the
//    selected blocks, summed in decreasing order (the order both emit in);
//  - the selected blocks equal the oracle's, except for blocks whose
//    probability ties the oracle's last emitted one within 1e-12 relative
//    (which of several tied blocks completes alpha is arbitrary).
// Returns whether the block sets were identical.
template <typename Filter, typename Tree>
bool ExpectMatchesBestFirst(const Filter& filter, const Tree& tree,
                            const fp::Fingerprint& q,
                            const DistortionModel& model,
                            const FilterOptions& options,
                            const std::string& context) {
  const BlockSelection sel = filter.SelectStatistical(q, model, options);
  const int depth = std::clamp(options.depth, 1, fp::kDims);
  const oracle::Walk walk = oracle::BestFirst(tree, q, model, options.alpha,
                                              depth, options.max_blocks);

  std::vector<uint32_t> got = oracle::BlocksOf(sel.ranges, depth);
  EXPECT_EQ(got.size(), sel.num_blocks) << context;
  EXPECT_GE(sel.nodes_visited, 1u) << context;
  std::vector<double> probs;
  for (const uint32_t prefix : got) {
    probs.push_back(
        oracle::NodeProb(tree, oracle::Descend(tree, prefix, depth), q, model));
  }
  std::sort(probs.begin(), probs.end(), std::greater<double>());
  double mass = 0;
  for (double p : probs) {
    mass += p;
  }
  EXPECT_EQ(sel.probability_mass, mass) << context;

  std::vector<uint32_t> want = walk.prefixes;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got == want) {
    EXPECT_EQ(sel.probability_mass, walk.mass) << context;
    return true;
  }
  EXPECT_FALSE(walk.probs.empty()) << context;
  if (walk.probs.empty()) {
    return false;
  }
  const double last = walk.probs.back();
  std::vector<uint32_t> differ;
  std::set_symmetric_difference(got.begin(), got.end(), want.begin(),
                                want.end(), std::back_inserter(differ));
  for (const uint32_t prefix : differ) {
    const double p =
        oracle::NodeProb(tree, oracle::Descend(tree, prefix, depth), q, model);
    EXPECT_TRUE(TiesWith(p, last))
        << context << ": block " << prefix << " of probability "
        << p << " differs from the oracle, whose last block has " << last;
  }
  return false;
}

// Checks SelectRange against the box-distance DFS oracle.
template <typename Filter, typename Tree>
void ExpectRangeMatchesDfs(const Filter& filter, const Tree& tree,
                           const fp::Fingerprint& q, double epsilon, int depth,
                           const std::string& context) {
  const BlockSelection sel = filter.SelectRange(q, epsilon, depth);
  const auto expected =
      MergeBlockRanges(oracle::RangeBlocks(tree, q, epsilon, depth), depth);
  EXPECT_EQ(oracle::BlocksOf(expected, depth).size(), sel.num_blocks)
      << context;
  ASSERT_EQ(sel.ranges.size(), expected.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sel.ranges[i].first, expected[i].first) << context;
    EXPECT_EQ(sel.ranges[i].second, expected[i].second) << context;
  }
}

std::array<double, fp::kDims> RandomSigmas(Rng* rng, double lo, double hi) {
  std::array<double, fp::kDims> sigmas;
  for (double& s : sigmas) {
    s = rng->Uniform(lo, hi);
  }
  return sigmas;
}

// The query families of the differential: uniform bytes; bytes at 127 or
// 128, next to the split plane; bytes at 0 or 255, on the grid edges. Each
// comes with a sigma range: the small sigmas make the far half of an axis
// underflow to exactly zero mass.
enum class QueryKind { kUniform, kMidPlane, kEdges };

fp::Fingerprint MakeQuery(QueryKind kind, Rng* rng) {
  if (kind == QueryKind::kUniform) {
    return UniformRandomFingerprint(rng);
  }
  fp::Fingerprint q;
  for (uint8_t& b : q) {
    const bool high = rng->UniformInt(0, 1) == 1;
    b = kind == QueryKind::kMidPlane ? (high ? 128 : 127) : (high ? 255 : 0);
  }
  return q;
}

std::pair<double, double> SigmaRange(QueryKind kind) {
  switch (kind) {
    case QueryKind::kUniform:
      return {0.3, 25.0};
    case QueryKind::kMidPlane:
      return {0.1, 2.0};
    case QueryKind::kEdges:
      return {0.2, 60.0};
  }
  return {1.0, 1.0};
}

// Radii that keep the oracle's block count small for each query family.
std::pair<double, double> EpsilonRange(QueryKind kind) {
  switch (kind) {
    case QueryKind::kUniform:
      return {5.0, 90.0};
    case QueryKind::kMidPlane:
      return {0.3, 1.0};
    case QueryKind::kEdges:
      return {100.0, 200.0};
  }
  return {1.0, 1.0};
}

template <typename Filter, typename Tree>
void RunStatisticalDifferential(const Filter& filter, const Tree& tree,
                                uint64_t seed, const char* curve_name) {
  Rng rng(seed);
  const double kAlphas[] = {0.5, 0.8, 0.95, 0.99};
  int trial = 0;
  int identical = 0;
  for (int depth = 1; depth <= fp::kDims; ++depth) {
    for (int rep = 0; rep < 6; ++rep, ++trial) {
      const auto kind = static_cast<QueryKind>(trial % 3);
      const fp::Fingerprint q = MakeQuery(kind, &rng);
      const auto [lo, hi] = SigmaRange(kind);
      const GaussianDistortionModel isotropic(rng.Uniform(lo, hi));
      const PerComponentGaussianModel per_component(
          RandomSigmas(&rng, lo, hi));
      const DistortionModel& model =
          (trial / 3) % 2 == 0 ? static_cast<const DistortionModel&>(isotropic)
                               : per_component;
      FilterOptions options;
      options.depth = depth;
      options.alpha = kAlphas[(trial / 6) % 4];
      options.max_blocks = 2048;
      const std::string context =
          std::string(curve_name) + " order " +
          std::to_string(tree.curve().order()) + " depth " +
          std::to_string(depth) + " trial " + std::to_string(trial);
      identical +=
          ExpectMatchesBestFirst(filter, tree, q, model, options, context);
    }
  }
  // Ties are the exception: most selections must match block for block.
  EXPECT_GT(identical, trial * 3 / 4) << curve_name;
}

template <typename Filter, typename Tree>
void RunRangeDifferential(const Filter& filter, const Tree& tree,
                          uint64_t seed, const char* curve_name) {
  Rng rng(seed);
  int trial = 0;
  for (int depth = 1; depth <= fp::kDims; ++depth) {
    for (int rep = 0; rep < 3; ++rep, ++trial) {
      const auto kind = static_cast<QueryKind>(trial % 3);
      const fp::Fingerprint q = MakeQuery(kind, &rng);
      const auto [lo, hi] = EpsilonRange(kind);
      ExpectRangeMatchesDfs(filter, tree, q, rng.Uniform(lo, hi), depth,
                            std::string(curve_name) + " order " +
                                std::to_string(tree.curve().order()) +
                                " depth " + std::to_string(depth));
    }
  }
}

class ClosedFormDifferentialTest : public testing::TestWithParam<int> {};

TEST_P(ClosedFormDifferentialTest, StatisticalMatchesBestFirstOnHilbert) {
  const hilbert::HilbertCurve curve(fp::kDims, GetParam());
  const BlockFilter filter;
  const hilbert::BlockTree tree(curve);
  RunStatisticalDifferential(filter, tree, 1000 + GetParam(), "hilbert");
}

TEST_P(ClosedFormDifferentialTest, StatisticalMatchesBestFirstOnZOrder) {
  const hilbert::ZOrderCurve curve(fp::kDims, GetParam());
  const ZOrderBlockFilter filter;
  const oracle::ZOrderTree tree(curve);
  RunStatisticalDifferential(filter, tree, 2000 + GetParam(), "zorder");
}

TEST_P(ClosedFormDifferentialTest, RangeMatchesBoxDistanceDfsOnHilbert) {
  const hilbert::HilbertCurve curve(fp::kDims, GetParam());
  const BlockFilter filter;
  const hilbert::BlockTree tree(curve);
  RunRangeDifferential(filter, tree, 3000 + GetParam(), "hilbert");
}

TEST_P(ClosedFormDifferentialTest, RangeMatchesBoxDistanceDfsOnZOrder) {
  const hilbert::ZOrderCurve curve(fp::kDims, GetParam());
  const ZOrderBlockFilter filter;
  const oracle::ZOrderTree tree(curve);
  RunRangeDifferential(filter, tree, 4000 + GetParam(), "zorder");
}

INSTANTIATE_TEST_SUITE_P(Orders, ClosedFormDifferentialTest,
                         testing::Values(1, 4, 8),
                         [](const testing::TestParamInfo<int>& info) {
                           return "order" + std::to_string(info.param);
                         });

// The closed form against the reference engine (per-node ComponentMass
// over the best-first walk) on realistic random queries and sigmas, at the
// default block cap.
template <typename Filter, typename Tree>
void RunEngineParitySweep(const Filter& filter, const Tree& tree,
                          uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    const fp::Fingerprint q = UniformRandomFingerprint(&rng);
    const GaussianDistortionModel uniform_model(rng.Uniform(3.0, 33.0));
    const PerComponentGaussianModel per_component_model(
        RandomSigmas(&rng, 3.0, 33.0));
    const DistortionModel& model =
        trial % 2 == 0 ? static_cast<const DistortionModel&>(uniform_model)
                       : per_component_model;
    FilterOptions options;
    options.alpha = rng.Uniform(0.3, 0.99);
    options.depth = static_cast<int>(rng.UniformInt(4, 20));
    ExpectMatchesBestFirst(filter, tree, q, model, options,
                           "randomized sweep trial " + std::to_string(trial));
  }
}

TEST(EngineParityTest, TableMatchesReferenceOnHilbert) {
  const hilbert::HilbertCurve curve(fp::kDims, 8);
  RunEngineParitySweep(BlockFilter(), hilbert::BlockTree(curve), 101);
}

TEST(EngineParityTest, TableMatchesReferenceOnZOrder) {
  const hilbert::ZOrderCurve curve(fp::kDims, 8);
  RunEngineParitySweep(ZOrderBlockFilter(), oracle::ZOrderTree(curve),
                       202);
}

TEST(EngineParityTest, TableMatchesReferenceOnLowOrderCurve) {
  // A coarse grid exercises the cell_shift > 0 boundary byte mapping of the
  // oracle; the closed form's split byte is 127.5 at every order.
  const hilbert::HilbertCurve curve(fp::kDims, 4);
  RunEngineParitySweep(BlockFilter(), hilbert::BlockTree(curve), 303);
}

TEST(EngineParityTest, EdgeCellTailAbsorption) {
  // Queries sitting on the grid edges force the +/- infinity boundary
  // entries: the edge cells absorb the clamped distortion tails, so the
  // root mass is exactly 1 and the closed form must agree with the oracle
  // on every block.
  const hilbert::HilbertCurve curve(fp::kDims, 8);
  const BlockFilter filter;
  const hilbert::BlockTree tree(curve);
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    fp::Fingerprint q;
    for (int j = 0; j < fp::kDims; ++j) {
      const int r = static_cast<int>(rng.UniformInt(0, 2));
      q[j] = r == 0 ? 0 : (r == 1 ? 255 : 128);
    }
    const GaussianDistortionModel model(20.0);
    FilterOptions options;
    options.alpha = 0.9;
    options.depth = 12;
    ExpectMatchesBestFirst(filter, tree, q, model, options, "edge-cell query");
    EXPECT_GE(filter.SelectStatistical(q, model, options).probability_mass,
              0.9 * 0.999)
        << "tail absorption keeps alpha reachable at the grid edge";
  }
}

TEST(EngineParityTest, CappedSelectionsAgree) {
  // When alpha is unreachable within max_blocks the selection is partial;
  // the closed form must truncate where the oracle does: the same
  // highest-probability blocks, the same mass, below alpha.
  const hilbert::HilbertCurve curve(fp::kDims, 8);
  const BlockFilter filter;
  const hilbert::BlockTree tree(curve);
  Rng rng(7);
  const GaussianDistortionModel model(40.0);  // wide: many blocks needed
  for (const uint64_t cap : {1u, 16u, 64u}) {
    for (int trial = 0; trial < 10; ++trial) {
      const fp::Fingerprint q = UniformRandomFingerprint(&rng);
      FilterOptions options;
      options.alpha = 0.999;
      options.depth = 16;
      options.max_blocks = cap;
      ExpectMatchesBestFirst(filter, tree, q, model, options,
                             "max_blocks " + std::to_string(cap));
      const BlockSelection sel = filter.SelectStatistical(q, model, options);
      EXPECT_EQ(sel.num_blocks, cap) << "cap must have fired";
      EXPECT_LT(sel.probability_mass, 0.999);
    }
  }
}

TEST(EngineParityTest, CapAccountingIdenticalAcrossCurves) {
  // The Hilbert and Z-order filters share one selection template. At depth
  // D both split every axis once, so they enumerate the same orthants with
  // the same probabilities: under the same block cap they select as many
  // blocks and the same mass, and each pop emits one block.
  const BlockFilter hfilter;
  const ZOrderBlockFilter zfilter;
  Rng rng(11);
  const GaussianDistortionModel model(35.0);
  for (int trial = 0; trial < 10; ++trial) {
    const fp::Fingerprint q = UniformRandomFingerprint(&rng);
    FilterOptions options;
    options.alpha = trial % 2 == 0 ? 0.999 : 0.6;
    options.depth = fp::kDims;
    options.max_blocks = 128;
    const BlockSelection h = hfilter.SelectStatistical(q, model, options);
    const BlockSelection z = zfilter.SelectStatistical(q, model, options);
    EXPECT_EQ(h.num_blocks, z.num_blocks);
    EXPECT_NEAR(h.probability_mass, z.probability_mass,
                1e-12 * h.probability_mass);
    for (const BlockSelection* sel : {&h, &z}) {
      EXPECT_EQ(sel->nodes_visited, sel->num_blocks) << "one block per pop";
      EXPECT_LE(sel->num_blocks, options.max_blocks);
    }
  }
}

TEST(BoundaryConventionTest, StatisticalAndRangeAgreeOnBoundaryQuery) {
  // Pin the shared quantization-interval convention: cell range [lo, hi)
  // covers bytes [lo*w - 0.5, hi*w - 0.5). Depth 20 halves every axis
  // once, with the cut at byte 127.5. The query
  // sits at 128 on axis 0 (0.5 bytes above the cut) and deep inside the
  // lower half elsewhere, so with a tight model (sigma 0.25) its own block
  // holds ~Phi(2) ~ 0.977 of the mass and the axis-0 neighbor holds the
  // rest: alpha = 0.99 selects exactly those two blocks. A range query of
  // radius 0.7 must select exactly the same two: the neighbor is 0.5 bytes
  // away under the unified convention. (Under the old integer-hull range
  // convention [lo*w, hi*w - 1] the neighbor appeared 1.0 away and the
  // filters disagreed on boundary queries.)
  const BlockFilter filter;
  fp::Fingerprint q;
  q.fill(64);
  q[0] = 128;
  const GaussianDistortionModel model(0.25);
  FilterOptions options;
  options.alpha = 0.99;
  options.depth = fp::kDims;  // one halving per axis
  const BlockSelection statistical =
      filter.SelectStatistical(q, model, options);
  EXPECT_EQ(statistical.num_blocks, 2u);
  const BlockSelection range =
      filter.SelectRange(q, /*epsilon=*/0.7, /*depth=*/fp::kDims);
  EXPECT_EQ(range.num_blocks, 2u);
  ASSERT_EQ(range.ranges.size(), statistical.ranges.size());
  for (size_t i = 0; i < range.ranges.size(); ++i) {
    EXPECT_EQ(range.ranges[i].first, statistical.ranges[i].first);
    EXPECT_EQ(range.ranges[i].second, statistical.ranges[i].second);
  }
}

TEST(BoundaryConventionTest, RangeMatchesDirectBoxDistanceDfs) {
  // The orthant DFS must reproduce a direct box-distance DFS over the
  // partition tree, on both curves, at every depth in [1, D].
  const hilbert::HilbertCurve hcurve(fp::kDims, 8);
  const hilbert::ZOrderCurve zcurve(fp::kDims, 8);
  const BlockFilter hfilter;
  const ZOrderBlockFilter zfilter;
  const hilbert::BlockTree htree(hcurve);
  const oracle::ZOrderTree ztree(zcurve);
  Rng rng(21);
  for (int depth = 1; depth <= fp::kDims; ++depth) {
    const fp::Fingerprint q = UniformRandomFingerprint(&rng);
    const double epsilon = rng.Uniform(40.0, 120.0);
    const std::string context = "depth " + std::to_string(depth);
    ExpectRangeMatchesDfs(hfilter, htree, q, epsilon, depth,
                          "hilbert " + context);
    ExpectRangeMatchesDfs(zfilter, ztree, q, epsilon, depth,
                          "zorder " + context);
  }
}

TEST(SelectionScratchTest, ReusedAcrossQueriesAndGeometries) {
  // One scratch object serving interleaved queries against the Hilbert
  // and the Z-order filter must give the same selections as fresh
  // scratches.
  const BlockFilter hilbert_filter;
  const ZOrderBlockFilter zorder_filter;
  const GaussianDistortionModel model(15.0);
  Rng rng(31);
  SelectionScratch shared;
  for (int trial = 0; trial < 10; ++trial) {
    const fp::Fingerprint q = UniformRandomFingerprint(&rng);
    FilterOptions options;
    options.alpha = 0.85;
    options.depth = 12;
    const auto check = [&](const auto& filter) {
      SelectionScratch fresh;
      const BlockSelection with_shared =
          filter.SelectStatistical(q, model, options, &shared);
      const BlockSelection with_fresh =
          filter.SelectStatistical(q, model, options, &fresh);
      ExpectSelectionsIdentical(with_shared, with_fresh, "scratch reuse");
      const BlockSelection range_shared =
          filter.SelectRange(q, 80.0, 10, 1 << 20, &shared);
      const BlockSelection range_fresh = filter.SelectRange(q, 80.0, 10);
      ExpectSelectionsIdentical(range_shared, range_fresh,
                                "scratch reuse (range)");
    };
    if (trial % 2 == 0) {
      check(hilbert_filter);
    } else {
      check(zorder_filter);
    }
  }
  EXPECT_GT(shared.ApproxBytes(), 0u);
}

TEST(SelectionScratchTest, ConcurrentThreadLocalScratchIsSafe) {
  // Concurrent selections through the default thread-local scratch must
  // be race-free (exercised under TSan) and agree with serial results.
  const BlockFilter filter;
  const GaussianDistortionModel model(18.0);
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 16;
  std::vector<fp::Fingerprint> queries;
  Rng rng(55);
  for (int i = 0; i < kThreads * kQueriesPerThread; ++i) {
    queries.push_back(UniformRandomFingerprint(&rng));
  }
  FilterOptions options;
  options.alpha = 0.9;
  options.depth = 12;
  std::vector<BlockSelection> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    serial[i] = filter.SelectStatistical(queries[i], model, options);
  }
  std::vector<BlockSelection> parallel(queries.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const size_t idx = static_cast<size_t>(t * kQueriesPerThread + i);
        parallel[idx] = filter.SelectStatistical(queries[idx], model, options);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSelectionsIdentical(parallel[i], serial[i], "concurrent");
  }
}

}  // namespace
}  // namespace s3vcd::core
