#include "core/index.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/sorted_run.h"
#include "core/synthetic_db.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

// Builds a clustered database: cluster centers with Gaussian spread, which
// resembles real fingerprint populations better than uniform filling.
FingerprintDatabase BuildTestDatabase(size_t count, uint64_t seed,
                                      std::vector<fp::Fingerprint>* sample) {
  Rng rng(seed);
  DatabaseBuilder builder;
  std::vector<fp::Fingerprint> centers;
  for (int c = 0; c < 50; ++c) {
    centers.push_back(UniformRandomFingerprint(&rng));
  }
  for (size_t i = 0; i < count; ++i) {
    const fp::Fingerprint& center =
        centers[static_cast<size_t>(rng.UniformInt(0, 49))];
    const fp::Fingerprint point = DistortFingerprint(center, 25.0, &rng);
    builder.Add(point, static_cast<uint32_t>(i % 17),
                static_cast<uint32_t>(i), static_cast<float>(i % 100),
                static_cast<float>(i % 50));
    if (sample != nullptr && i % 97 == 0) {
      sample->push_back(point);
    }
  }
  return builder.Build();
}

// Brute-force range query reference.
std::multiset<std::pair<uint32_t, uint32_t>> BruteForceRange(
    const FingerprintDatabase& db, const fp::Fingerprint& q, double eps) {
  std::multiset<std::pair<uint32_t, uint32_t>> out;
  for (size_t i = 0; i < db.size(); ++i) {
    if (fp::Distance(q, db.record(i).descriptor) <= eps) {
      out.insert({db.record(i).id, db.record(i).time_code});
    }
  }
  return out;
}

std::multiset<std::pair<uint32_t, uint32_t>> ToSet(
    const std::vector<Match>& matches) {
  std::multiset<std::pair<uint32_t, uint32_t>> out;
  for (const Match& m : matches) {
    out.insert({m.id, m.time_code});
  }
  return out;
}

TEST(DatabaseTest, BuildSortsAlongCurve) {
  FingerprintDatabase db = BuildTestDatabase(5000, 11, nullptr);
  ASSERT_EQ(db.size(), 5000u);
  for (size_t i = 1; i < db.size(); ++i) {
    EXPECT_LE(db.codes()[i - 1], db.codes()[i]);
    EXPECT_EQ(db.codes()[i], OrthantCode(db.record(i).descriptor));
  }
}

TEST(DatabaseTest, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/db_roundtrip.s3db";
  FingerprintDatabase db = BuildTestDatabase(3000, 13, nullptr);
  ASSERT_TRUE(db.SaveToFile(path).ok());
  auto loaded = FingerprintDatabase::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(loaded->record(i).descriptor, db.record(i).descriptor);
    EXPECT_EQ(loaded->record(i).id, db.record(i).id);
    EXPECT_EQ(loaded->record(i).time_code, db.record(i).time_code);
    EXPECT_EQ(loaded->codes()[i], db.codes()[i]);
  }
  std::remove(path.c_str());
}

TEST(DatabaseTest, LoadDetectsCorruption) {
  const std::string path = testing::TempDir() + "/db_corrupt.s3db";
  FingerprintDatabase db = BuildTestDatabase(500, 14, nullptr);
  ASSERT_TRUE(db.SaveToFile(path).ok());
  // Flip a payload byte.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 200, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 200, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  auto loaded = FingerprintDatabase::LoadFromFile(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(DatabaseTest, LoadRejectsGarbageFile) {
  const std::string path = testing::TempDir() + "/db_garbage.s3db";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not a database", f);
  std::fclose(f);
  auto loaded = FingerprintDatabase::LoadFromFile(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

class IndexFixture : public testing::Test {
 protected:
  IndexFixture()
      : index_(BuildTestDatabase(20000, 42, &sample_)), rng_(77) {}

  std::vector<fp::Fingerprint> sample_;
  S3Index index_;
  Rng rng_;
};

TEST_F(IndexFixture, RangeQueryMatchesBruteForceExactly) {
  for (int depth : {8, 12, 16}) {
    for (int trial = 0; trial < 15; ++trial) {
      const fp::Fingerprint q =
          DistortFingerprint(sample_[trial % sample_.size()], 15.0, &rng_);
      const double eps = 40.0 + 10 * (trial % 5);
      const QueryResult result = index_.RangeQuery(q, eps, depth);
      EXPECT_EQ(ToSet(result.matches),
                BruteForceRange(index_.database(), q, eps))
          << "depth=" << depth << " trial=" << trial;
    }
  }
}

TEST_F(IndexFixture, SequentialScanMatchesBruteForce) {
  const fp::Fingerprint q = DistortFingerprint(sample_[0], 10.0, &rng_);
  const QueryResult result = SequentialScan(index_.database(), q, 80.0);
  EXPECT_EQ(ToSet(result.matches),
            BruteForceRange(index_.database(), q, 80.0));
  EXPECT_EQ(result.stats.records_scanned, index_.database().size());
}

TEST_F(IndexFixture, StatisticalQueryReturnsExactlyRegionContents) {
  // The statistical query must return exactly the records whose codes fall
  // inside the selected ranges (kAll semantics).
  const GaussianDistortionModel model(15.0);
  QueryOptions options;
  options.filter.alpha = 0.8;
  options.filter.depth = 12;
  for (int trial = 0; trial < 10; ++trial) {
    const fp::Fingerprint q =
        DistortFingerprint(sample_[trial % sample_.size()], 15.0, &rng_);
    const BlockSelection sel =
        index_.filter().SelectStatistical(q, model, options.filter);
    const QueryResult result = index_.StatQuery(q, model, options);
    // Count database records inside the selection by code membership.
    size_t expected = 0;
    for (size_t i = 0; i < index_.database().size(); ++i) {
      for (const auto& [begin, end] : sel.ranges) {
        const uint32_t code = index_.database().codes()[i];
        if (begin <= code && code < end) {
          ++expected;
          break;
        }
      }
    }
    EXPECT_EQ(result.matches.size(), expected);
  }
}

TEST_F(IndexFixture, StatisticalRetrievalRateTracksAlpha) {
  // The paper's core property (Figures 3 and 5): the probability that the
  // original fingerprint is retrieved from a query distorted by the model
  // is close to alpha.
  const double sigma = 12.0;
  const GaussianDistortionModel model(sigma);
  for (double alpha : {0.5, 0.9}) {
    QueryOptions options;
    options.filter.alpha = alpha;
    options.filter.depth = 12;
    int retrieved = 0;
    const int kTrials = 300;
    for (int t = 0; t < kTrials; ++t) {
      const fp::Fingerprint& target = sample_[t % sample_.size()];
      const fp::Fingerprint q = DistortFingerprint(target, sigma, &rng_);
      const QueryResult result = index_.StatQuery(q, model, options);
      const double target_dist = fp::Distance(q, target);
      for (const Match& m : result.matches) {
        if (std::abs(m.distance - target_dist) < 1e-3) {
          retrieved += 1;
          break;
        }
      }
    }
    const double rate = static_cast<double>(retrieved) / kTrials;
    // Byte clamping at the borders makes the effective distortion slightly
    // lighter than the model, so the rate may exceed alpha; it must not
    // fall far below it (paper reports <= 7% error).
    EXPECT_GT(rate, alpha - 0.10) << "alpha=" << alpha;
  }
}

TEST_F(IndexFixture, StatsArePopulated) {
  const GaussianDistortionModel model(15.0);
  QueryOptions options;
  options.filter.alpha = 0.8;
  options.filter.depth = 12;
  const fp::Fingerprint q = DistortFingerprint(sample_[3], 12.0, &rng_);
  const QueryResult result = index_.StatQuery(q, model, options);
  EXPECT_GT(result.stats.blocks_selected, 0u);
  EXPECT_GT(result.stats.nodes_visited, 0u);
  EXPECT_GE(result.stats.probability_mass, 0.8 * 0.99);
  EXPECT_GE(result.stats.records_scanned, result.matches.size());
}

TEST_F(IndexFixture, RadiusFilterModeRestrictsResults) {
  const GaussianDistortionModel model(15.0);
  QueryOptions all;
  all.filter.alpha = 0.9;
  all.filter.depth = 12;
  QueryOptions radius = all;
  radius.refinement = RefinementMode::kRadiusFilter;
  radius.radius = 50.0;
  const fp::Fingerprint q = DistortFingerprint(sample_[5], 12.0, &rng_);
  const QueryResult a = index_.StatQuery(q, model, all);
  const QueryResult b = index_.StatQuery(q, model, radius);
  EXPECT_LE(b.matches.size(), a.matches.size());
  for (const Match& m : b.matches) {
    EXPECT_LE(m.distance, 50.0);
  }
}

TEST(IndexEdgeCasesTest, EmptyDatabaseIsSafe) {
  DatabaseBuilder builder;
  S3Index index(builder.Build());
  Rng rng(1);
  const GaussianDistortionModel model(10.0);
  QueryOptions options;
  const fp::Fingerprint q = UniformRandomFingerprint(&rng);
  EXPECT_TRUE(index.StatQuery(q, model, options).matches.empty());
  EXPECT_TRUE(index.RangeQuery(q, 100.0, 8).matches.empty());
  EXPECT_TRUE(SequentialScan(index.database(), q, 100.0).matches.empty());
}

TEST(IndexEdgeCasesTest, SingleRecordDatabase) {
  DatabaseBuilder builder;
  fp::Fingerprint one;
  one.fill(100);
  builder.Add(one, 7, 3);
  S3Index index(builder.Build());
  const GaussianDistortionModel model(10.0);
  QueryOptions options;
  options.filter.alpha = 0.99;
  const QueryResult result = index.StatQuery(one, model, options);
  ASSERT_EQ(result.matches.size(), 1u);
  EXPECT_EQ(result.matches[0].id, 7u);
  EXPECT_EQ(result.matches[0].time_code, 3u);
  EXPECT_FLOAT_EQ(result.matches[0].distance, 0.0f);
}

TEST(IndexEdgeCasesTest, DuplicateFingerprintsAllReturned) {
  DatabaseBuilder builder;
  fp::Fingerprint dup;
  dup.fill(64);
  for (uint32_t i = 0; i < 10; ++i) {
    builder.Add(dup, i, i * 100);
  }
  S3Index index(builder.Build());
  const QueryResult result = index.RangeQuery(dup, 1.0, 8);
  EXPECT_EQ(result.matches.size(), 10u);
}


TEST(IndexMoveTest, MovedIndexKeepsWorkingFilter) {
  // Regression: BlockFilter holds a pointer to the curve inside the
  // database; the move operations must re-seat it (a defaulted move left
  // it dangling into the moved-from object).
  Rng rng(4141);
  DatabaseBuilder builder;
  std::vector<fp::Fingerprint> stored;
  for (int i = 0; i < 3000; ++i) {
    const fp::Fingerprint f = UniformRandomFingerprint(&rng);
    builder.Add(f, 1, static_cast<uint32_t>(i));
    if (i % 100 == 0) {
      stored.push_back(f);
    }
  }
  S3Index original(builder.Build());
  S3Index moved(std::move(original));
  // And through move-assignment as well.
  DatabaseBuilder builder2;
  builder2.Add(stored[0], 9, 9);
  S3Index assigned(builder2.Build());
  assigned = std::move(moved);

  const GaussianDistortionModel model(12.0);
  QueryOptions options;
  options.filter.alpha = 0.9;
  options.filter.depth = 12;
  int hits = 0;
  for (const auto& target : stored) {
    const fp::Fingerprint q = DistortFingerprint(target, 12.0, &rng);
    const QueryResult result = assigned.StatQuery(q, model, options);
    const double target_dist = fp::Distance(q, target);
    for (const auto& m : result.matches) {
      if (std::abs(m.distance - target_dist) < 1e-3) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GT(hits, static_cast<int>(stored.size() * 0.6));
}

}  // namespace
}  // namespace s3vcd::core
