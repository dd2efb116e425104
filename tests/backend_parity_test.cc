// Cross-backend parity: every served exact Searcher backend, and the
// VA-file baseline, must agree on the result set of an exact range query
// over the same records, the block backends (s3, segment) must agree
// exactly on statistical queries including their scan counters, and
// ShardedSearcher must preserve both across shard counts. The vamana graph
// and the LSH baseline are approximate by construction, so they are held
// to a subset-plus-recall contract instead of equality.
//
// This test is part of the TSan gate (tools/run_tsan_tests.sh): the
// sharded assertions run through ThreadPool-backed batch fan-out so races
// in the backend-agnostic service path are visible to the sanitizer.

#include "core/searcher.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <cstdio>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/lsh.h"
#include "core/synthetic_db.h"
#include "core/vafile.h"
#include "core/vamana.h"
#include "fingerprint/fingerprint.h"
#include "service/sharded_searcher.h"
#include "store/make_searcher.h"
#include "store/segment_searcher.h"
#include "util/io.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace s3vcd::core {
namespace {

constexpr double kSigma = 10.0;
constexpr int kDepth = 12;
constexpr int kNumQueries = 40;

// One deterministic reference population, rebuilt on demand because every
// backend construction consumes its database.
FingerprintDatabase MakeDatabase() {
  Rng rng(4242);
  DatabaseBuilder builder;
  std::vector<fp::Fingerprint> pool;
  for (uint32_t i = 0; i < 150; ++i) {
    pool.push_back(UniformRandomFingerprint(&rng));
    builder.Add(pool.back(), i % 12, 10 * i, 0, 0);
  }
  AppendDistractors(&builder, pool, 3000, DistractorOptions{}, &rng);
  return builder.Build();
}

// Distorted self-queries (the paper's Q = S + Delta S protocol) plus a few
// far-from-data probes.
std::vector<fp::Fingerprint> MakeQueries(const FingerprintDatabase& db) {
  Rng rng(777);
  std::vector<fp::Fingerprint> queries;
  for (int i = 0; i < kNumQueries; ++i) {
    if (i % 8 == 7) {
      queries.push_back(UniformRandomFingerprint(&rng));
      continue;
    }
    const size_t idx = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(db.size()) - 1));
    queries.push_back(DistortFingerprint(db.record(idx).descriptor, kSigma,
                                         &rng));
  }
  return queries;
}

std::unique_ptr<Searcher> MakeBackend(std::string_view name) {
  auto backend = store::MakeSearcher(name, MakeDatabase());
  EXPECT_TRUE(backend.ok()) << backend.status().ToString();
  return std::move(*backend);
}

std::vector<FingerprintRecord> RecordsOf(const FingerprintDatabase& db) {
  std::vector<FingerprintRecord> records;
  records.reserve(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    records.push_back(db.record(i));
  }
  return records;
}

using IdTimeSet = std::multiset<std::pair<uint32_t, uint32_t>>;

IdTimeSet Ids(const QueryResult& result) {
  IdTimeSet ids;
  for (const Match& m : result.matches) {
    ids.insert({m.id, m.time_code});
  }
  return ids;
}

double TestEpsilon() {
  // Equal-expectation radius at alpha = 0.9: distorted self-queries are
  // usually retrieved, and some distractors land inside too.
  return ChiNormDistribution(fp::kDims, kSigma).Quantile(0.9);
}

// The served backends, and only those: the VA-file and LSH baselines are
// constructed directly by the benches and tests that compare against them.
TEST(MakeSearcherTest, KnowsExactlyTheServedBackends) {
  EXPECT_EQ(std::vector<std::string>(store::kSearcherBackends.begin(),
                                     store::kSearcherBackends.end()),
            (std::vector<std::string>{"s3", "segment", "seqscan", "vamana"}));
}

TEST(MakeSearcherTest, RejectsUnknownBackendWithNameList) {
  auto result = store::MakeSearcher("btree", MakeDatabase());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The message must list the served names — it is surfaced verbatim
  // by the tool's --backend rejection.
  EXPECT_NE(result.status().ToString().find("seqscan"), std::string::npos)
      << result.status().ToString();
}

// Every served exact backend and the VA-file return the identical id
// set for the identical range query; the vamana graph returns a subset
// (its recall floor is VamanaRecallBound's), and LSH returns a subset
// with bounded recall loss.
TEST(BackendParityTest, RangeParity) {
  const FingerprintDatabase db = MakeDatabase();
  const std::vector<fp::Fingerprint> queries = MakeQueries(db);
  const double epsilon = TestEpsilon();

  const auto seqscan = MakeBackend("seqscan");
  std::vector<std::pair<std::string, std::unique_ptr<Searcher>>> registered;
  for (const std::string_view name : store::kSearcherBackends) {
    registered.emplace_back(name, MakeBackend(name));
  }
  const VAFile vafile(RecordsOf(db), VAFileOptions{});
  // LSH tuned so its recall against the exact answer is meaningfully high
  // at this test's epsilon.
  LshOptions lsh_options;
  lsh_options.num_tables = 12;
  lsh_options.hashes_per_table = 4;
  lsh_options.bucket_width = 2.0 * epsilon;
  const LshIndex lsh(RecordsOf(db), lsh_options);

  size_t exact_total = 0;
  size_t lsh_found = 0;
  size_t nonempty = 0;
  for (const fp::Fingerprint& q : queries) {
    const QueryResult truth = seqscan->RangeQuery(q, epsilon, kDepth);
    const IdTimeSet expected = Ids(truth);
    nonempty += expected.empty() ? 0 : 1;
    // Exhaustive-scan invariant: the sequential backend refines every
    // record.
    EXPECT_EQ(truth.stats.records_scanned, db.size());

    for (const auto& [name, backend] : registered) {
      const IdTimeSet got = Ids(backend->RangeQuery(q, epsilon, kDepth));
      if (name == "vamana") {
        for (const auto& id : got) {
          EXPECT_TRUE(expected.count(id) > 0)
              << "vamana returned a non-answer (id " << id.first << ")";
        }
      } else {
        EXPECT_EQ(got, expected) << "backend " << name << " diverges";
      }
    }
    EXPECT_EQ(Ids(vafile.RangeQuery(q, epsilon)), expected)
        << "vafile diverges";

    const IdTimeSet approx = Ids(lsh.RangeQuery(q, epsilon));
    for (const auto& id : approx) {
      EXPECT_TRUE(expected.count(id) > 0)
          << "lsh returned a non-answer (id " << id.first << ")";
    }
    exact_total += expected.size();
    for (const auto& id : expected) {
      lsh_found += approx.count(id) > 0 ? 1 : 0;
    }
  }
  ASSERT_GT(nonempty, 0u) << "test epsilon retrieves nothing";
  ASSERT_GT(exact_total, 0u);
  const double recall =
      static_cast<double>(lsh_found) / static_cast<double>(exact_total);
  EXPECT_GE(recall, 0.6) << "lsh recall collapsed";
}

// The two block backends execute the statistical query identically, down
// to every scan counter: one range scanned per selected section, and the
// same records refined whether they sit in an S3 index or a segment.
TEST(BackendParityTest, StatQueryCounterParityS3Segment) {
  const FingerprintDatabase db = MakeDatabase();
  const std::vector<fp::Fingerprint> queries = MakeQueries(db);
  const auto s3 = MakeBackend("s3");
  const auto segment = MakeBackend("segment");
  const GaussianDistortionModel model(kSigma);
  QueryOptions options;
  options.filter.alpha = 0.9;
  options.filter.depth = kDepth;

  for (const fp::Fingerprint& q : queries) {
    const QueryResult a = s3->StatQuery(q, model, options);
    const QueryResult b = segment->StatQuery(q, model, options);
    EXPECT_EQ(Ids(a), Ids(b));
    EXPECT_EQ(a.stats.records_scanned, b.stats.records_scanned);
    EXPECT_EQ(a.stats.ranges_scanned, b.stats.ranges_scanned);
    EXPECT_EQ(a.stats.blocks_selected, b.stats.blocks_selected);
    EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited);
  }
}

// A segment store with half its records still buffered in the memtable
// (the spill threshold is above the insert count) agrees with the
// sequential scan over the full population: buffered records are found
// through the memtable's sorted runs exactly as stored ones are through
// the segment. (memtable_test pins the runs' lookup of the final wrapped
// section, whose zero end means the top of the key space.)
TEST(BackendParityTest, SegmentWithBufferedInsertsMatchesSeqScan) {
  const FingerprintDatabase full = MakeDatabase();
  Rng rng(4242);
  DatabaseBuilder builder;
  // Rebuild only the even records statically; odd records insert later.
  for (size_t i = 0; i < full.size(); i += 2) {
    const FingerprintRecord& r = full.record(i);
    builder.Add(r.descriptor, r.id, r.time_code, r.x, r.y);
  }
  // Inserts are methods of the concrete segment backend, not of Searcher.
  store::SegmentSearcherOptions segment_options;
  segment_options.spill_threshold = full.size();
  auto segment =
      store::SegmentSearcher::Open(builder.Build(), segment_options);
  ASSERT_TRUE(segment.ok());
  for (size_t i = 1; i < full.size(); i += 2) {
    const FingerprintRecord& r = full.record(i);
    ASSERT_TRUE(
        (*segment)->TryInsert(r.descriptor, r.id, r.time_code, r.x, r.y));
  }
  EXPECT_EQ((*segment)->Stats().records, full.size());
  EXPECT_EQ((*segment)->pending_inserts(), full.size() / 2);

  const auto seqscan = MakeBackend("seqscan");
  const GaussianDistortionModel model(kSigma);
  QueryOptions options;
  options.filter.alpha = 0.95;
  options.filter.depth = kDepth;
  options.refinement = RefinementMode::kRadiusFilter;
  options.radius = TestEpsilon();
  for (const fp::Fingerprint& q : MakeQueries(full)) {
    const QueryResult truth = seqscan->RangeQuery(q, options.radius, kDepth);
    const QueryResult got =
        (*segment)->RangeQuery(q, options.radius, kDepth);
    EXPECT_EQ(Ids(got), Ids(truth));
  }
}

// Seq-scan statistical emulation (equal-expectation radius) is identical
// to an explicit range query at that radius.
TEST(BackendParityTest, SeqScanStatQueryIsEqualExpectationRange) {
  const FingerprintDatabase db = MakeDatabase();
  const auto seqscan = MakeBackend("seqscan");
  const GaussianDistortionModel model(kSigma);
  QueryOptions options;
  options.filter.alpha = 0.9;
  const double epsilon = EqualExpectationRadius(model, options.filter.alpha);
  for (const fp::Fingerprint& q : MakeQueries(db)) {
    EXPECT_EQ(Ids(seqscan->StatQuery(q, model, options)),
              Ids(seqscan->RangeQuery(q, epsilon, kDepth)));
  }
}

// Sharding is invisible: for any shard count, the sharded statistical and
// range queries over a block backend return the unsharded answer with the
// same selection and total scan work; a shard count of K=1..5 crosses both
// the shared selection and the per-(query, shard) batch fan-out. The
// batches run on a real ThreadPool so this parity is also a TSan workload.
TEST(BackendParityTest, ShardedParityAcrossShardCounts) {
  const FingerprintDatabase db = MakeDatabase();
  const std::vector<fp::Fingerprint> queries = MakeQueries(db);
  const auto s3 = MakeBackend("s3");
  const GaussianDistortionModel model(kSigma);
  QueryOptions options;
  options.filter.alpha = 0.9;
  options.filter.depth = kDepth;
  const double epsilon = TestEpsilon();

  std::vector<QueryResult> expected;
  std::vector<QueryResult> expected_range;
  for (const fp::Fingerprint& q : queries) {
    expected.push_back(s3->StatQuery(q, model, options));
    expected_range.push_back(s3->RangeQuery(q, epsilon, kDepth));
  }

  for (int num_shards : {1, 3, 5}) {
    service::ShardedSearcherOptions sharding;
    sharding.num_shards = num_shards;
    auto sharded = service::ShardedSearcher::Build(MakeDatabase(), sharding);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ThreadPool pool(4);
    const std::vector<QueryResult> results = sharded->RunBatch(
        queries, service::BatchSpec::Statistical(model, options), &pool);
    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(Ids(results[i]), Ids(expected[i]))
          << "K=" << num_shards << " query " << i;
      EXPECT_EQ(results[i].stats.records_scanned,
                expected[i].stats.records_scanned)
          << "K=" << num_shards << " query " << i;
    }
    const std::vector<QueryResult> ranges = sharded->RunBatch(
        queries, service::BatchSpec::Range(epsilon, kDepth), &pool);
    ASSERT_EQ(ranges.size(), queries.size());
    for (size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_EQ(Ids(ranges[i]), Ids(expected_range[i]))
          << "K=" << num_shards << " range query " << i;
      EXPECT_EQ(ranges[i].stats.nodes_visited,
                expected_range[i].stats.nodes_visited)
          << "K=" << num_shards << " range query " << i;
      EXPECT_EQ(ranges[i].stats.records_scanned,
                expected_range[i].stats.records_scanned)
          << "K=" << num_shards << " range query " << i;
    }
  }
}

// Graceful degradation: a sharded searcher over a backend with no block
// structure still answers statistical queries (per-shard fallback), and
// exhaustive shards make it exact.
TEST(BackendParityTest, ShardedSeqScanFallbackParity) {
  const FingerprintDatabase db = MakeDatabase();
  const std::vector<fp::Fingerprint> queries = MakeQueries(db);
  const auto seqscan = MakeBackend("seqscan");
  const GaussianDistortionModel model(kSigma);
  QueryOptions options;
  options.filter.alpha = 0.9;

  service::ShardedSearcherOptions sharding;
  sharding.num_shards = 3;
  sharding.backend = "seqscan";
  auto sharded = service::ShardedSearcher::Build(MakeDatabase(), sharding);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->shard(0).selection_filter(), nullptr);
  EXPECT_EQ(sharded->total_size(), db.size());

  ThreadPool pool(4);
  const std::vector<QueryResult> results = sharded->RunBatch(
      queries, service::BatchSpec::Statistical(model, options), &pool);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const QueryResult expected = seqscan->StatQuery(queries[i], model,
                                                    options);
    EXPECT_EQ(Ids(results[i]), Ids(expected)) << "query " << i;
    EXPECT_EQ(results[i].stats.records_scanned,
              expected.stats.records_scanned);
  }
}

// --- Vamana graph backend ----------------------------------------------

// The graph backend is approximate like LSH: every returned match must be
// a true answer (subset property — matches are exact-distance filtered),
// and at the default beam width its recall against the exhaustive scan
// stays above a floor far beyond what a broken graph could reach.
TEST(BackendParityTest, VamanaRecallBound) {
  const FingerprintDatabase db = MakeDatabase();
  const std::vector<fp::Fingerprint> queries = MakeQueries(db);
  const double epsilon = TestEpsilon();
  const auto seqscan = MakeBackend("seqscan");
  const auto vamana = MakeBackend("vamana");
  EXPECT_STREQ(vamana->backend_name(), "vamana");
  EXPECT_EQ(vamana->Stats().records, db.size());
  EXPECT_EQ(vamana->selection_filter(), nullptr);
  EXPECT_GT(vamana->ApproxBytes(), 0u);

  size_t exact_total = 0;
  size_t found = 0;
  for (const fp::Fingerprint& q : queries) {
    const IdTimeSet expected = Ids(seqscan->RangeQuery(q, epsilon, kDepth));
    const QueryResult result = vamana->RangeQuery(q, epsilon, kDepth);
    EXPECT_GT(result.stats.nodes_visited, 0u);
    EXPECT_GT(result.stats.records_scanned, 0u);
    const IdTimeSet approx = Ids(result);
    for (const auto& id : approx) {
      EXPECT_TRUE(expected.count(id) > 0)
          << "vamana returned a non-answer (id " << id.first << ")";
    }
    exact_total += expected.size();
    for (const auto& id : expected) {
      found += approx.count(id) > 0 ? 1 : 0;
    }
  }
  ASSERT_GT(exact_total, 0u);
  const double recall =
      static_cast<double>(found) / static_cast<double>(exact_total);
  EXPECT_GE(recall, 0.9) << "vamana recall collapsed";
}

// StatQuery is emulated at the equal-expectation radius with the default
// beam (the LSH pattern), so it equals an explicit RangeQuery there.
TEST(BackendParityTest, VamanaStatQueryIsEqualExpectationRange) {
  const FingerprintDatabase db = MakeDatabase();
  const auto vamana = MakeBackend("vamana");
  const GaussianDistortionModel model(kSigma);
  QueryOptions options;
  options.filter.alpha = 0.9;
  const double epsilon = EqualExpectationRadius(model, options.filter.alpha);
  for (const fp::Fingerprint& q : MakeQueries(db)) {
    EXPECT_EQ(Ids(vamana->StatQuery(q, model, options)),
              Ids(vamana->RangeQuery(q, epsilon, kDepth)));
  }
}

// The parallel build is deterministic in (records, options): thread count
// must not change a single adjacency row.
TEST(VamanaIndexTest, BuildDeterministicUnderFixedSeed) {
  const FingerprintDatabase db = MakeDatabase();
  VamanaOptions options;
  options.graph_degree = 16;
  options.build_beam = 32;
  options.build_threads = 1;
  const VamanaIndex serial(RecordsOf(db), options);
  options.build_threads = 4;
  const VamanaIndex parallel(RecordsOf(db), options);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial.medoid(), parallel.medoid());
  for (uint32_t node = 0; node < serial.size(); ++node) {
    ASSERT_EQ(serial.Neighbors(node), parallel.Neighbors(node))
        << "node " << node;
  }
}

// Save/load roundtrip: a second index constructed with the same records,
// options and graph_path loads the blob instead of rebuilding and is
// observationally identical; changing an option invalidates the blob.
TEST(VamanaIndexTest, GraphBlobSaveLoadRoundtrip) {
  const FingerprintDatabase db = MakeDatabase();
  const std::string path =
      ::testing::TempDir() + "/vamana_roundtrip.s3vg";
  std::remove(path.c_str());
  VamanaOptions options;
  options.graph_degree = 16;
  options.build_beam = 32;
  options.graph_path = path;
  const VamanaIndex built(RecordsOf(db), options);
  ASSERT_FALSE(built.loaded_from_blob());

  const VamanaIndex loaded(RecordsOf(db), options);
  ASSERT_TRUE(loaded.loaded_from_blob());
  ASSERT_EQ(loaded.size(), built.size());
  EXPECT_EQ(loaded.medoid(), built.medoid());
  for (uint32_t node = 0; node < built.size(); ++node) {
    ASSERT_EQ(loaded.Neighbors(node), built.Neighbors(node))
        << "node " << node;
  }
  const double epsilon = TestEpsilon();
  for (const fp::Fingerprint& q : MakeQueries(db)) {
    EXPECT_EQ(Ids(built.RangeQuery(q, epsilon, kDepth)),
              Ids(loaded.RangeQuery(q, epsilon, kDepth)));
  }

  // A different seed must reject the blob and rebuild (then re-save).
  options.seed = 99;
  const VamanaIndex reseeded(RecordsOf(db), options);
  EXPECT_FALSE(reseeded.loaded_from_blob());
  std::remove(path.c_str());
}

// A truncated/corrupted blob is rejected (checksum) and the index
// rebuilds instead of serving garbage adjacency.
TEST(VamanaIndexTest, CorruptGraphBlobTriggersRebuild) {
  const FingerprintDatabase db = MakeDatabase();
  const std::string path = ::testing::TempDir() + "/vamana_corrupt.s3vg";
  std::remove(path.c_str());
  VamanaOptions options;
  options.graph_degree = 8;
  options.build_beam = 16;
  options.graph_path = path;
  { const VamanaIndex built(RecordsOf(db), options); }
  {
    // Flip one byte in the middle of the adjacency payload.
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  const VamanaIndex reloaded(RecordsOf(db), options);
  EXPECT_FALSE(reloaded.loaded_from_blob());
  std::remove(path.c_str());
}

// Graphs are built over the exact descriptor bytes only, so the blob's
// codec word (byte 52) must be 0. A blob carrying 2, the tag of the
// retired lvq4 codec, is a mismatch even with its checksum resealed, and
// the index rebuilds.
TEST(VamanaIndexTest, GraphBlobWithNonzeroCodecWordTriggersRebuild) {
  const FingerprintDatabase db = MakeDatabase();
  const std::string path = ::testing::TempDir() + "/vamana_codec.s3vg";
  std::remove(path.c_str());
  VamanaOptions options;
  options.graph_degree = 8;
  options.build_beam = 16;
  options.graph_path = path;
  { const VamanaIndex built(RecordsOf(db), options); }
  ASSERT_TRUE(VamanaIndex(RecordsOf(db), options).loaded_from_blob());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_GT(bytes->size(), 60u);
  (*bytes)[52] = 2;
  const uint32_t crc = Crc32(bytes->data(), bytes->size() - 4);
  std::memcpy(bytes->data() + bytes->size() - 4, &crc, 4);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes->data(), 1, bytes->size(), f), bytes->size());
  std::fclose(f);
  EXPECT_FALSE(VamanaIndex(RecordsOf(db), options).loaded_from_blob());
  std::remove(path.c_str());
}

// The sharded service degrades gracefully over vamana exactly as over
// seqscan: no selection filter, per-shard StatQuery fallback, batch
// fan-out on a real ThreadPool (TSan workload for the graph search).
TEST(BackendParityTest, ShardedVamanaFallbackAnswers) {
  const FingerprintDatabase db = MakeDatabase();
  const std::vector<fp::Fingerprint> queries = MakeQueries(db);
  const GaussianDistortionModel model(kSigma);
  QueryOptions options;
  options.filter.alpha = 0.9;

  service::ShardedSearcherOptions sharding;
  sharding.num_shards = 3;
  sharding.backend = "vamana";
  auto sharded = service::ShardedSearcher::Build(MakeDatabase(), sharding);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->shard(0).selection_filter(), nullptr);
  EXPECT_EQ(sharded->total_size(), db.size());

  ThreadPool pool(4);
  const std::vector<QueryResult> results = sharded->RunBatch(
      queries, service::BatchSpec::Statistical(model, options), &pool);
  ASSERT_EQ(results.size(), queries.size());
  size_t hits = 0;
  for (const QueryResult& r : results) {
    hits += r.matches.size();
  }
  // The distorted self-queries overwhelmingly land: a sharded graph that
  // lost its records would return (close to) nothing.
  EXPECT_GT(hits, queries.size() / 2);
}

}  // namespace
}  // namespace s3vcd::core
