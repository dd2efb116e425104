#include "store/segment_searcher.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/searcher.h"
#include "core/synthetic_db.h"
#include "store/make_searcher.h"
#include "util/rng.h"

namespace s3vcd::store {
namespace {

namespace fs = std::filesystem;

/// Match multiset including the distance bits: parity with the in-memory
/// S3 index must be bit-identical, not merely same-id.
using MatchKey = std::tuple<uint32_t, uint32_t, float, float, float>;

std::multiset<MatchKey> ToSet(const std::vector<core::Match>& matches) {
  std::multiset<MatchKey> out;
  for (const core::Match& m : matches) {
    out.insert({m.id, m.time_code, m.distance, m.x, m.y});
  }
  return out;
}

/// `count` random records from `seed`, plus `inserted` (the records a
/// test also fed through TryInsert).
core::FingerprintDatabase BuildDb(
    size_t count, uint64_t seed,
    const std::vector<core::FingerprintRecord>& inserted = {}) {
  Rng rng(seed);
  core::DatabaseBuilder builder;
  for (size_t i = 0; i < count; ++i) {
    builder.Add(core::UniformRandomFingerprint(&rng),
                static_cast<uint32_t>(i % 11), static_cast<uint32_t>(i),
                static_cast<float>(i % 320), static_cast<float>(i % 240));
  }
  for (const core::FingerprintRecord& r : inserted) {
    builder.Add(r.descriptor, r.id, r.time_code, r.x, r.y);
  }
  return builder.Build();
}

/// The reference answer: an in-memory S3 index over `db`.
std::unique_ptr<core::Searcher> MakeReference(core::FingerprintDatabase db) {
  auto s3 = MakeSearcher("s3", std::move(db));
  EXPECT_TRUE(s3.ok());
  return std::move(*s3);
}

/// The reference and the segment backend over the same corpus, ready for
/// comparison queries.
struct ParityPair {
  std::unique_ptr<core::Searcher> reference;
  std::unique_ptr<SegmentSearcher> segment;
};

ParityPair MakePair(size_t count, uint64_t seed,
                    const SegmentSearcherOptions& options = {}) {
  ParityPair pair;
  pair.reference = MakeReference(BuildDb(count, seed));
  auto segment = SegmentSearcher::Open(BuildDb(count, seed), options);
  EXPECT_TRUE(segment.ok()) << segment.status().ToString();
  pair.segment = std::move(*segment);
  return pair;
}

void ExpectParity(const core::Searcher& a, const core::Searcher& b,
                  uint64_t seed, int trials, const char* where) {
  Rng rng(seed);
  const core::GaussianDistortionModel model(15.0);
  core::QueryOptions options;
  options.filter.alpha = 0.9;
  options.filter.depth = 12;
  for (int t = 0; t < trials; ++t) {
    const fp::Fingerprint q = core::UniformRandomFingerprint(&rng);
    const auto sa = a.StatQuery(q, model, options);
    const auto sb = b.StatQuery(q, model, options);
    EXPECT_EQ(ToSet(sa.matches), ToSet(sb.matches))
        << where << " stat trial " << t;
    const auto ra = a.RangeQuery(q, 130.0, 12);
    const auto rb = b.RangeQuery(q, 130.0, 12);
    EXPECT_EQ(ToSet(ra.matches), ToSet(rb.matches))
        << where << " range trial " << t;
  }
}

TEST(SegmentParityTest, MatchesS3OnStaticCorpus) {
  ParityPair pair = MakePair(6000, 101);
  EXPECT_STREQ(pair.segment->backend_name(), "segment");
  EXPECT_EQ(pair.segment->Stats().records, 6000u);
  ExpectParity(*pair.reference, *pair.segment, 1, 12, "static");
}

TEST(SegmentParityTest, MatchesS3AcrossInsertsSpillsAndCompaction) {
  SegmentSearcherOptions options;
  options.spill_threshold = 150;  // force several spills mid-stream
  options.store.sync_writes = false;
  auto segment = SegmentSearcher::Open(BuildDb(3000, 102), options);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();

  Rng rng(2);
  std::vector<core::FingerprintRecord> inserted;
  for (int i = 0; i < 500; ++i) {
    const fp::Fingerprint f = core::UniformRandomFingerprint(&rng);
    const uint32_t id = 500 + (i % 5);
    const uint32_t time_code = 90000 + i;
    inserted.push_back({f, id, time_code, 0, 0});
    ASSERT_TRUE((*segment)->TryInsert(f, id, time_code));
  }
  const auto reference = MakeReference(BuildDb(3000, 102, inserted));
  // 500 inserts at threshold 150: at least 3 spills happened, some records
  // are still buffered.
  EXPECT_GT((*segment)->segment_store().num_segments(), 3u);
  EXPECT_LT((*segment)->pending_inserts(), 150u);
  EXPECT_EQ((*segment)->Stats().records, 3500u);
  ExpectParity(*reference, **segment, 3, 10, "post-insert");

  (*segment)->Compact();
  EXPECT_EQ((*segment)->pending_inserts(), 0u);
  EXPECT_EQ((*segment)->Stats().records, 3500u);
  ExpectParity(*reference, **segment, 4, 10, "post-compact");
}

TEST(SegmentParityTest, ReopenedStoreAnswersIdentically) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("s3vcd_parity_reopen_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);

  SegmentSearcherOptions options;
  options.store_dir = dir;
  options.store.sync_writes = false;
  options.spill_threshold = 200;
  std::vector<core::FingerprintRecord> inserted;
  {
    auto segment = SegmentSearcher::Open(BuildDb(4000, 103), options);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    Rng rng(5);
    for (int i = 0; i < 300; ++i) {
      const fp::Fingerprint f = core::UniformRandomFingerprint(&rng);
      inserted.push_back({f, 7, static_cast<uint32_t>(1000 + i), 0, 0});
      ASSERT_TRUE((*segment)->TryInsert(f, 7, 1000 + i));
    }
    // Push the tail of the memtable to disk: only durable records survive
    // the "restart".
    (*segment)->Compact();
    EXPECT_EQ((*segment)->Stats().records, 4300u);
  }  // destroy = process restart

  // Reopen from the manifest with an EMPTY database: the store is the
  // single source of truth.
  auto reopened = SegmentSearcher::Open(core::DatabaseBuilder().Build(),
                                        options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->Stats().records, 4300u);
  EXPECT_EQ((*reopened)->pending_inserts(), 0u);
  ExpectParity(*MakeReference(BuildDb(4000, 103, inserted)), **reopened, 6,
               10, "reopened");

  // Handing a non-empty database to a non-empty store must be refused.
  auto conflict = SegmentSearcher::Open(BuildDb(10, 1), options);
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kFailedPrecondition);

  fs::remove_all(dir);
}

// ---- Write-buffer behaviour ----------------------------------------------

/// Statistical-query matches of `query` on `searcher` with the given
/// model and filter depth.
std::vector<core::Match> StatMatches(const core::Searcher& searcher,
                                     const fp::Fingerprint& query,
                                     double sigma, double alpha, int depth) {
  const core::GaussianDistortionModel model(sigma);
  core::QueryOptions options;
  options.filter.alpha = alpha;
  options.filter.depth = depth;
  return searcher.StatQuery(query, model, options).matches;
}

TEST(SegmentParityTest, InsertsVisibleImmediately) {
  auto segment = SegmentSearcher::Open(BuildDb(5000, 61), {});
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  Rng rng(1);
  const fp::Fingerprint novel = core::UniformRandomFingerprint(&rng);
  // Before the insert the exact point is absent.
  for (const core::Match& m : StatMatches(**segment, novel, 8.0, 0.95, 12)) {
    ASSERT_NE(m.distance, 0.0f);
  }

  ASSERT_TRUE((*segment)->TryInsert(novel, 999, 424242));
  EXPECT_EQ((*segment)->pending_inserts(), 1u);
  bool found = false;
  for (const core::Match& m : StatMatches(**segment, novel, 8.0, 0.95, 12)) {
    if (m.id == 999 && m.time_code == 424242) {
      found = true;
      EXPECT_FLOAT_EQ(m.distance, 0.0f);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SegmentParityTest, FarBufferedRecordStaysOutsideTheRegion) {
  auto segment = SegmentSearcher::Open(BuildDb(1000, 63), {});
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  fp::Fingerprint near;
  near.fill(50);
  fp::Fingerprint far;
  far.fill(200);
  ASSERT_TRUE((*segment)->TryInsert(near, 1001, 1));
  ASSERT_TRUE((*segment)->TryInsert(far, 1002, 2));
  EXPECT_EQ((*segment)->pending_inserts(), 2u);
  bool saw_near = false;
  for (const core::Match& m : StatMatches(**segment, near, 5.0, 0.9, 20)) {
    EXPECT_NE(m.id, 1002u) << "far buffered record leaked into the region";
    saw_near |= m.id == 1001;
  }
  EXPECT_TRUE(saw_near);
}

TEST(SegmentParityTest, CompactOnEmptyBufferIsNoop) {
  auto segment = SegmentSearcher::Open(BuildDb(100, 64), {});
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  const size_t segments = (*segment)->segment_store().num_segments();
  (*segment)->Compact();
  EXPECT_EQ((*segment)->Stats().records, 100u);
  EXPECT_EQ((*segment)->pending_inserts(), 0u);
  EXPECT_EQ((*segment)->segment_store().num_segments(), segments);
}

TEST(SegmentParityTest, SpillAndCompactCyclesAccumulate) {
  SegmentSearcherOptions options;
  options.spill_threshold = 16;  // every cycle spills, then compacts
  options.store.sync_writes = false;
  auto segment = SegmentSearcher::Open(BuildDb(500, 65), options);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  Rng rng(3);
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*segment)->TryInsert(core::UniformRandomFingerprint(&rng),
                                        1000 + cycle,
                                        static_cast<uint32_t>(i)));
    }
    (*segment)->Compact();
    EXPECT_EQ((*segment)->pending_inserts(), 0u);
  }
  EXPECT_EQ((*segment)->Stats().records, 500u + 4 * 50);
  EXPECT_EQ((*segment)->segment_store().total_records(), 500u + 4 * 50);
}

TEST(SegmentParityTest, MakeSearcherConstructsSegmentBackend) {
  ASSERT_TRUE(CheckSearcherBackend("segment").ok());
  auto searcher = MakeSearcher("segment", BuildDb(500, 104));
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  EXPECT_STREQ((*searcher)->backend_name(), "segment");
  EXPECT_EQ((*searcher)->Stats().records, 500u);
  EXPECT_NE((*searcher)->selection_filter(), nullptr);
  EXPECT_GT((*searcher)->ApproxBytes(), 0u);
}

TEST(SegmentParityTest, MakeSearcherReportsOpenFailureAsStatus) {
  // Point the store dir at a regular FILE: SegmentStore::Open must fail,
  // and MakeSearcher must surface an error instead of a null searcher.
  const std::string bogus =
      (fs::temp_directory_path() /
       ("s3vcd_parity_bogus_" + std::to_string(::getpid())))
          .string();
  {
    std::ofstream out(bogus, std::ios::trunc);
    out << "not a directory";
  }
  SearcherConfig config;
  config.segment_store_dir = bogus;
  const auto searcher = MakeSearcher("segment", BuildDb(10, 105), config);
  ASSERT_FALSE(searcher.ok());
  fs::remove(bogus);
}

TEST(SegmentParityTest, MmapAndResidentReadsAgree) {
  SegmentSearcherOptions mapped;
  mapped.store.sync_writes = false;
  SegmentSearcherOptions resident;
  resident.store.sync_writes = false;
  resident.store.use_mmap = false;
  auto a = SegmentSearcher::Open(BuildDb(2000, 106), mapped);
  auto b = SegmentSearcher::Open(BuildDb(2000, 106), resident);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectParity(**a, **b, 7, 8, "mmap-vs-resident");
}

}  // namespace
}  // namespace s3vcd::store
