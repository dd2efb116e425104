// Tests of curve orders below 8 (coarser grids): the index remains exact
// for range queries and calibrated for statistical queries, because only
// the partition geometry changes, not the stored byte descriptors.

#include <cmath>
#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/index.h"
#include "core/pseudo_disk.h"
#include "core/synthetic_db.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

DatabaseBuilder MakeBuilder(int order, size_t count, Rng* rng,
                            std::vector<fp::Fingerprint>* sample) {
  DatabaseBuilder builder(order);
  for (size_t i = 0; i < count; ++i) {
    const fp::Fingerprint f = UniformRandomFingerprint(rng);
    builder.Add(f, static_cast<uint32_t>(i % 5), static_cast<uint32_t>(i));
    if (sample != nullptr && i % 67 == 0) {
      sample->push_back(f);
    }
  }
  return builder;
}

class LowOrderTest : public testing::TestWithParam<int> {};

TEST_P(LowOrderTest, KeyBitsMatchOrder) {
  const int order = GetParam();
  Rng rng(1);
  DatabaseBuilder builder = MakeBuilder(order, 100, &rng, nullptr);
  FingerprintDatabase db = builder.Build();
  EXPECT_EQ(db.order(), order);
  EXPECT_EQ(db.curve().key_bits(), 20 * order);
  for (size_t i = 1; i < db.size(); ++i) {
    EXPECT_LE(db.key(i - 1), db.key(i));
  }
}

TEST_P(LowOrderTest, RangeQueryStaysExact) {
  const int order = GetParam();
  Rng rng(2 + order);
  std::vector<fp::Fingerprint> sample;
  DatabaseBuilder builder = MakeBuilder(order, 8000, &rng, &sample);
  const S3Index index(builder.Build());
  for (int trial = 0; trial < 6; ++trial) {
    const fp::Fingerprint q =
        DistortFingerprint(sample[trial % sample.size()], 20.0, &rng);
    const double eps = 60.0 + 15 * trial;
    const int depth = std::min(10, 20 * order);
    const QueryResult result = index.RangeQuery(q, eps, depth);
    std::multiset<uint32_t> expected;
    for (size_t i = 0; i < index.database().size(); ++i) {
      if (fp::Distance(q, index.database().record(i).descriptor) <= eps) {
        expected.insert(index.database().record(i).time_code);
      }
    }
    std::multiset<uint32_t> got;
    for (const auto& m : result.matches) {
      got.insert(m.time_code);
    }
    EXPECT_EQ(got, expected) << "order=" << order << " trial=" << trial;
  }
}

TEST_P(LowOrderTest, StatisticalQueryReachesAlpha) {
  const int order = GetParam();
  Rng rng(3 + order);
  std::vector<fp::Fingerprint> sample;
  DatabaseBuilder builder = MakeBuilder(order, 8000, &rng, &sample);
  const S3Index index(builder.Build());
  const double sigma = 18.0;
  const GaussianDistortionModel model(sigma);
  QueryOptions options;
  options.filter.alpha = 0.8;
  options.filter.depth = std::min(12, 20 * order);
  int hits = 0;
  const int kTrials = 120;
  for (int t = 0; t < kTrials; ++t) {
    const fp::Fingerprint& target = sample[t % sample.size()];
    const fp::Fingerprint q = DistortFingerprint(target, sigma, &rng);
    const QueryResult result = index.StatQuery(q, model, options);
    EXPECT_GE(result.stats.probability_mass, 0.8 * 0.999);
    const double target_dist = fp::Distance(q, target);
    for (const auto& m : result.matches) {
      if (std::abs(m.distance - target_dist) < 1e-3) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GT(static_cast<double>(hits) / kTrials, 0.8 - 0.12)
      << "order=" << order;
}

TEST_P(LowOrderTest, SaveLoadPreservesOrder) {
  const int order = GetParam();
  const std::string path = testing::TempDir() + "/low_order_" +
                           std::to_string(order) + ".s3db";
  Rng rng(4 + order);
  DatabaseBuilder builder = MakeBuilder(order, 500, &rng, nullptr);
  FingerprintDatabase db = builder.Build();
  ASSERT_TRUE(db.SaveToFile(path).ok());
  auto loaded = FingerprintDatabase::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->order(), order);
  EXPECT_EQ(loaded->size(), db.size());
  std::remove(path.c_str());
}

TEST_P(LowOrderTest, PseudoDiskWorksAtThisOrder) {
  const int order = GetParam();
  const std::string path = testing::TempDir() + "/low_order_disk_" +
                           std::to_string(order) + ".s3db";
  Rng rng(5 + order);
  DatabaseBuilder builder = MakeBuilder(order, 3000, &rng, nullptr);
  FingerprintDatabase db = builder.Build();
  ASSERT_TRUE(db.SaveToFile(path).ok());

  PseudoDiskOptions options;
  options.section_depth = 2;
  options.query_depth = std::min(8, 20 * order);
  auto searcher = PseudoDiskSearcher::Open(path, options);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();

  const GaussianDistortionModel model(15.0);
  std::vector<fp::Fingerprint> queries = {UniformRandomFingerprint(&rng),
                                          UniformRandomFingerprint(&rng)};
  std::vector<std::vector<Match>> results;
  PseudoDiskBatchStats stats;
  ASSERT_TRUE(searcher->SearchBatch(queries, model, &results, &stats).ok());
  EXPECT_EQ(results.size(), 2u);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Orders, LowOrderTest, testing::Values(4, 6, 8),
                         [](const testing::TestParamInfo<int>& info) {
                           return "K" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace s3vcd::core
