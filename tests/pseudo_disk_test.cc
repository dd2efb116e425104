#include "core/pseudo_disk.h"

#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/index.h"
#include "core/synthetic_db.h"
#include "util/logging.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

struct DiskFixtureState {
  std::string path;
  std::vector<fp::Fingerprint> pool;
};

DiskFixtureState BuildDiskDatabase(size_t count, uint64_t seed) {
  DiskFixtureState state;
  state.path = testing::TempDir() + "/pseudo_disk_" +
               std::to_string(seed) + ".s3db";
  Rng rng(seed);
  DatabaseBuilder builder;
  for (size_t i = 0; i < count; ++i) {
    const fp::Fingerprint f = UniformRandomFingerprint(&rng);
    builder.Add(f, static_cast<uint32_t>(i), static_cast<uint32_t>(i * 3));
    if (i % 53 == 0) {
      state.pool.push_back(f);
    }
  }
  FingerprintDatabase db = builder.Build();
  S3VCD_CHECK(db.SaveToFile(state.path).ok());
  return state;
}

std::multiset<std::pair<uint32_t, uint32_t>> ToSet(
    const std::vector<Match>& matches) {
  std::multiset<std::pair<uint32_t, uint32_t>> out;
  for (const Match& m : matches) {
    out.insert({m.id, m.time_code});
  }
  return out;
}

TEST(PseudoDiskTest, MatchesInMemoryStatisticalQuery) {
  const DiskFixtureState state = BuildDiskDatabase(8000, 1001);
  PseudoDiskOptions options;
  options.section_depth = 3;
  options.query_depth = 10;
  options.alpha = 0.8;
  auto searcher = PseudoDiskSearcher::Open(state.path, options);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();

  auto db = FingerprintDatabase::LoadFromFile(state.path);
  ASSERT_TRUE(db.ok());
  S3Index index(std::move(*db));

  Rng rng(5);
  const GaussianDistortionModel model(18.0);
  std::vector<fp::Fingerprint> queries;
  for (int i = 0; i < 20; ++i) {
    queries.push_back(DistortFingerprint(
        state.pool[i % state.pool.size()], 18.0, &rng));
  }
  std::vector<std::vector<Match>> results;
  PseudoDiskBatchStats stats;
  ASSERT_TRUE(
      searcher->SearchBatch(queries, model, &results, &stats).ok());
  ASSERT_EQ(results.size(), queries.size());

  QueryOptions query_options;
  query_options.filter.alpha = options.alpha;
  query_options.filter.depth = options.query_depth;
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResult expected =
        index.StatQuery(queries[i], model, query_options);
    EXPECT_EQ(ToSet(results[i]), ToSet(expected.matches)) << "query " << i;
  }
  std::remove(state.path.c_str());
}

TEST(PseudoDiskTest, StatsDecomposeBatchTime) {
  const DiskFixtureState state = BuildDiskDatabase(6000, 1002);
  PseudoDiskOptions options;
  options.section_depth = 2;
  options.query_depth = 8;
  auto searcher = PseudoDiskSearcher::Open(state.path, options);
  ASSERT_TRUE(searcher.ok());
  EXPECT_EQ(searcher->num_records(), 6000u);

  Rng rng(6);
  const GaussianDistortionModel model(20.0);
  std::vector<fp::Fingerprint> queries;
  for (int i = 0; i < 10; ++i) {
    queries.push_back(UniformRandomFingerprint(&rng));
  }
  std::vector<std::vector<Match>> results;
  PseudoDiskBatchStats stats;
  ASSERT_TRUE(searcher->SearchBatch(queries, model, &results, &stats).ok());
  EXPECT_EQ(stats.num_queries, 10u);
  EXPECT_GT(stats.sections_loaded, 0u);
  EXPECT_LE(stats.sections_loaded, 4u);
  EXPECT_GT(stats.records_loaded, 0u);
  EXPECT_GE(stats.records_scanned, results[0].size());
  EXPECT_GE(stats.AverageTotalMillis(), 0.0);
  std::remove(state.path.c_str());
}

TEST(PseudoDiskTest, EmptyBatchIsSafe) {
  const DiskFixtureState state = BuildDiskDatabase(500, 1003);
  auto searcher = PseudoDiskSearcher::Open(state.path, PseudoDiskOptions{});
  ASSERT_TRUE(searcher.ok());
  const GaussianDistortionModel model(10.0);
  std::vector<std::vector<Match>> results;
  PseudoDiskBatchStats stats;
  ASSERT_TRUE(searcher->SearchBatch({}, model, &results, &stats).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.num_queries, 0u);
  std::remove(state.path.c_str());
}

TEST(PseudoDiskTest, RejectsInvalidOptions) {
  const DiskFixtureState state = BuildDiskDatabase(100, 1004);
  PseudoDiskOptions options;
  options.section_depth = 12;
  options.query_depth = 8;  // r > p is invalid
  auto searcher = PseudoDiskSearcher::Open(state.path, options);
  EXPECT_FALSE(searcher.ok());
  EXPECT_EQ(searcher.status().code(), StatusCode::kInvalidArgument);
  std::remove(state.path.c_str());
}

TEST(PseudoDiskTest, RejectsQueryDepthBeyondDims) {
  // The block filter serves depths [1, D]; a deeper query_depth used to be
  // accepted up to dims * order and silently clamped.
  const DiskFixtureState state = BuildDiskDatabase(100, 1006);
  PseudoDiskOptions options;
  options.section_depth = 4;
  for (const int depth : {fp::kDims + 1, 48, 0}) {
    options.query_depth = depth;
    auto searcher = PseudoDiskSearcher::Open(state.path, options);
    EXPECT_FALSE(searcher.ok()) << "query_depth " << depth;
    EXPECT_EQ(searcher.status().code(), StatusCode::kInvalidArgument);
  }
  options.query_depth = fp::kDims;
  EXPECT_TRUE(PseudoDiskSearcher::Open(state.path, options).ok());
  std::remove(state.path.c_str());
}

TEST(PseudoDiskTest, RejectsMissingFile) {
  auto searcher =
      PseudoDiskSearcher::Open("/nonexistent/foo.s3db", PseudoDiskOptions{});
  EXPECT_FALSE(searcher.ok());
}

TEST(PseudoDiskTest, SectionDepthZeroLoadsWholeDatabaseOnce) {
  const DiskFixtureState state = BuildDiskDatabase(2000, 1005);
  PseudoDiskOptions options;
  options.section_depth = 0;
  options.query_depth = 8;
  auto searcher = PseudoDiskSearcher::Open(state.path, options);
  ASSERT_TRUE(searcher.ok());
  Rng rng(8);
  const GaussianDistortionModel model(15.0);
  std::vector<std::vector<Match>> results;
  PseudoDiskBatchStats stats;
  ASSERT_TRUE(searcher
                  ->SearchBatch({UniformRandomFingerprint(&rng)}, model,
                                &results, &stats)
                  .ok());
  EXPECT_EQ(stats.sections_loaded, 1u);
  EXPECT_EQ(stats.records_loaded, 2000u);
  std::remove(state.path.c_str());
}

}  // namespace
}  // namespace s3vcd::core
