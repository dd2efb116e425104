// Parameterized property sweeps over the query engine: for a grid of
// (alpha, sigma, depth) configurations, the statistical query must reach
// its expectation, return exactly the contents of its region, and the
// range query must agree with brute force.

#include <cmath>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "core/distortion_model.h"
#include "core/index.h"
#include "core/synthetic_db.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

const FingerprintDatabase& SharedDb() {
  static const FingerprintDatabase* db = [] {
    Rng rng(20250705);
    DatabaseBuilder builder;
    std::vector<fp::Fingerprint> centers;
    for (int c = 0; c < 30; ++c) {
      centers.push_back(UniformRandomFingerprint(&rng));
    }
    for (int i = 0; i < 12000; ++i) {
      builder.Add(
          DistortFingerprint(
              centers[static_cast<size_t>(rng.UniformInt(0, 29))], 30.0,
              &rng),
          static_cast<uint32_t>(i % 11), static_cast<uint32_t>(i));
    }
    return new FingerprintDatabase(builder.Build());
  }();
  return *db;
}

class StatisticalQueryProperty
    : public testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(StatisticalQueryProperty, MassReachedAndResultsMatchRegion) {
  const auto [alpha, sigma, depth] = GetParam();
  // Rebuild a fresh index over the shared records (databases are move-only
  // so tests each construct their own from a builder).
  DatabaseBuilder builder;
  const FingerprintDatabase& shared = SharedDb();
  for (size_t i = 0; i < shared.size(); ++i) {
    const auto& r = shared.record(i);
    builder.Add(r.descriptor, r.id, r.time_code, r.x, r.y);
  }
  const S3Index index(builder.Build());
  const GaussianDistortionModel model(sigma);
  Rng rng(static_cast<uint64_t>(alpha * 1000 + sigma * 7 + depth));

  for (int trial = 0; trial < 5; ++trial) {
    const size_t target_idx = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(index.database().size()) - 1));
    const fp::Fingerprint q = DistortFingerprint(
        index.database().record(target_idx).descriptor, sigma, &rng);

    QueryOptions query;
    query.filter.alpha = alpha;
    query.filter.depth = depth;
    const BlockSelection sel =
        index.filter().SelectStatistical(q, model, query.filter);
    // Mass target reached (border cells absorb clipped tails, so the
    // achievable mass is 1).
    EXPECT_GE(sel.probability_mass, alpha * 0.999);

    // Ranges aligned, sorted, disjoint.
    for (size_t i = 0; i < sel.ranges.size(); ++i) {
      EXPECT_LT(sel.ranges[i].first, sel.ranges[i].second);
      if (i > 0) {
        EXPECT_LT(sel.ranges[i - 1].second, sel.ranges[i].first);
      }
    }

    // Query returns exactly the region contents.
    const QueryResult result = index.StatQuery(q, model, query);
    size_t expected = 0;
    for (size_t i = 0; i < index.database().size(); ++i) {
      for (const auto& [begin, end] : sel.ranges) {
        const uint32_t code = index.database().codes()[i];
        if (begin <= code && code < end) {
          ++expected;
          break;
        }
      }
    }
    EXPECT_EQ(result.matches.size(), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StatisticalQueryProperty,
    testing::Combine(testing::Values(0.5, 0.8, 0.95),
                     testing::Values(8.0, 20.0, 35.0),
                     testing::Values(6, 12, 18)),
    [](const testing::TestParamInfo<std::tuple<double, double, int>>& info) {
      return "a" + std::to_string(static_cast<int>(
                       std::get<0>(info.param) * 100)) +
             "s" + std::to_string(static_cast<int>(std::get<1>(info.param))) +
             "p" + std::to_string(std::get<2>(info.param));
    });

class RangeQueryProperty : public testing::TestWithParam<double> {};

TEST_P(RangeQueryProperty, AgreesWithBruteForce) {
  const double epsilon = GetParam();
  DatabaseBuilder builder;
  const FingerprintDatabase& shared = SharedDb();
  for (size_t i = 0; i < shared.size(); ++i) {
    const auto& r = shared.record(i);
    builder.Add(r.descriptor, r.id, r.time_code);
  }
  const S3Index index(builder.Build());
  Rng rng(static_cast<uint64_t>(epsilon));
  for (int trial = 0; trial < 5; ++trial) {
    const size_t idx = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(index.database().size()) - 1));
    const fp::Fingerprint q = DistortFingerprint(
        index.database().record(idx).descriptor, 20.0, &rng);
    const QueryResult via_index = index.RangeQuery(q, epsilon, 12);
    std::multiset<uint32_t> expected;
    for (size_t i = 0; i < index.database().size(); ++i) {
      if (fp::Distance(q, index.database().record(i).descriptor) <=
          epsilon) {
        expected.insert(index.database().record(i).time_code);
      }
    }
    std::multiset<uint32_t> got;
    for (const auto& m : via_index.matches) {
      got.insert(m.time_code);
      EXPECT_LE(m.distance, epsilon + 1e-4);
    }
    EXPECT_EQ(got, expected) << "epsilon=" << epsilon;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RangeQueryProperty,
                         testing::Values(10.0, 40.0, 90.0, 150.0),
                         [](const testing::TestParamInfo<double>& info) {
                           return "eps" + std::to_string(static_cast<int>(
                                              info.param));
                         });

}  // namespace
}  // namespace s3vcd::core
