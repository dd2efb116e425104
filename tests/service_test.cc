#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/index.h"
#include "core/searcher.h"
#include "core/synthetic_db.h"
#include "obs/metrics.h"
#include "service/cancel_token.h"
#include "service/query_service.h"
#include "service/selection_cache.h"
#include "service/sharded_searcher.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace s3vcd::service {
namespace {

using core::GaussianDistortionModel;
using core::Match;
using core::QueryOptions;
using core::UniformRandomFingerprint;

std::multiset<std::pair<uint32_t, uint32_t>> ToSet(
    const std::vector<Match>& matches) {
  std::multiset<std::pair<uint32_t, uint32_t>> out;
  for (const Match& m : matches) {
    out.insert({m.id, m.time_code});
  }
  return out;
}

core::FingerprintDatabase BuildDb(size_t count, uint64_t seed) {
  Rng rng(seed);
  core::DatabaseBuilder builder;
  for (size_t i = 0; i < count; ++i) {
    builder.Add(UniformRandomFingerprint(&rng), static_cast<uint32_t>(i % 11),
                static_cast<uint32_t>(i));
  }
  return builder.Build();
}

QueryOptions TestQueryOptions() {
  QueryOptions options;
  options.filter.alpha = 0.85;
  options.filter.depth = 12;
  return options;
}

// One statistical query through the sharded batch path.
core::QueryResult StatQuery(const ShardedSearcher& searcher,
                            const fp::Fingerprint& q,
                            const core::DistortionModel& model,
                            const QueryOptions& options,
                            SelectionCache* cache = nullptr) {
  return searcher.RunBatch({q}, BatchSpec::Statistical(model, options),
                           /*pool=*/nullptr, cache)[0];
}

// The acceptance-criterion test: identical match sets (up to ordering) for
// several shard counts, both policies, statistical and range batches,
// serial and pooled, vs the unsharded S3 index.
TEST(ShardedSearcherTest, ParityWithUnshardedAcrossShardCounts) {
  const size_t kDbSize = 4000;
  const core::S3Index reference(BuildDb(kDbSize, 71));
  const GaussianDistortionModel model(16.0);
  const QueryOptions options = TestQueryOptions();
  const double epsilon =
      core::EqualExpectationRadius(model, options.filter.alpha);

  Rng rng(5);
  std::vector<fp::Fingerprint> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(UniformRandomFingerprint(&rng));
  }
  std::vector<std::multiset<std::pair<uint32_t, uint32_t>>> expected_stat;
  std::vector<std::multiset<std::pair<uint32_t, uint32_t>>> expected_range;
  for (const auto& q : queries) {
    expected_stat.push_back(
        ToSet(reference.StatQuery(q, model, options).matches));
    expected_range.push_back(ToSet(
        reference.RangeQuery(q, epsilon, options.filter.depth).matches));
  }

  ThreadPool pool(3);
  for (const ShardingPolicy policy :
       {ShardingPolicy::kHilbertRange, ShardingPolicy::kRefIdHash}) {
    for (const int num_shards : {1, 2, 3, 4, 5, 7, 8}) {
      ShardedSearcherOptions sharding;
      sharding.num_shards = num_shards;
      sharding.policy = policy;
      auto searcher = ShardedSearcher::Build(BuildDb(kDbSize, 71), sharding);
      ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
      EXPECT_EQ(searcher->num_shards(), num_shards);
      EXPECT_EQ(searcher->total_size(), kDbSize);
      for (ThreadPool* fan_out : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const auto stat = searcher->RunBatch(
            queries, BatchSpec::Statistical(model, options), fan_out);
        const auto range = searcher->RunBatch(
            queries, BatchSpec::Range(epsilon, options.filter.depth),
            fan_out);
        ASSERT_EQ(stat.size(), queries.size());
        ASSERT_EQ(range.size(), queries.size());
        for (size_t i = 0; i < queries.size(); ++i) {
          SCOPED_TRACE(::testing::Message()
                       << "policy=" << static_cast<int>(policy)
                       << " shards=" << num_shards
                       << " pooled=" << (fan_out != nullptr)
                       << " query=" << i);
          EXPECT_EQ(ToSet(stat[i].matches), expected_stat[i]);
          EXPECT_EQ(ToSet(range[i].matches), expected_range[i]);
        }
      }
    }
  }
}

TEST(ShardedSearcherTest, BatchWithPoolAndCacheMatchesSerial) {
  const size_t kDbSize = 3000;
  auto searcher = ShardedSearcher::Build(BuildDb(kDbSize, 72), {});
  ASSERT_TRUE(searcher.ok());
  const GaussianDistortionModel model(14.0);
  const QueryOptions options = TestQueryOptions();

  Rng rng(6);
  std::vector<fp::Fingerprint> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(UniformRandomFingerprint(&rng));
  }
  // Duplicate a few queries so the cache actually gets hits.
  queries.push_back(queries[0]);
  queries.push_back(queries[1]);

  const BatchSpec spec = BatchSpec::Statistical(model, options);
  const auto serial = searcher->RunBatch(queries, spec);
  ThreadPool pool(4);
  SelectionCache cache(64);
  const auto pooled = searcher->RunBatch(queries, spec, &pool, &cache);
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(ToSet(serial[i].matches), ToSet(pooled[i].matches)) << i;
  }
  EXPECT_GT(cache.misses(), 0u);  // a cold cache fills

  // The hit count is pinned on a serial cached batch: on the pool, a
  // duplicate may start before the original's selection is cached.
  SelectionCache serial_cache(64);
  const auto cached =
      searcher->RunBatch(queries, spec, /*pool=*/nullptr, &serial_cache);
  ASSERT_EQ(serial.size(), cached.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(ToSet(serial[i].matches), ToSet(cached[i].matches)) << i;
  }
  EXPECT_EQ(serial_cache.hits(), 2u);  // exactly the duplicated probes
}

TEST(ShardedSearcherTest, CachedSelectionTaggedInStats) {
  auto searcher = ShardedSearcher::Build(BuildDb(3000, 78), {});
  ASSERT_TRUE(searcher.ok());
  const GaussianDistortionModel model(14.0);
  const QueryOptions options = TestQueryOptions();
  Rng rng(9);
  const fp::Fingerprint q = UniformRandomFingerprint(&rng);

  SelectionCache cache(16);
  const core::QueryResult first =
      StatQuery(*searcher, q, model, options, &cache);
  EXPECT_FALSE(first.stats.selection_cached);
  EXPECT_GT(first.stats.nodes_visited, 0u);
  EXPECT_GT(first.stats.blocks_selected, 0u);

  // The repeat reuses the cached selection: the hit is tagged and the
  // selection work is reported as zero so aggregated # METRICS counters
  // do not double-count the first query's tree expansion.
  const core::QueryResult second =
      StatQuery(*searcher, q, model, options, &cache);
  EXPECT_TRUE(second.stats.selection_cached);
  EXPECT_EQ(second.stats.nodes_visited, 0u);
  EXPECT_EQ(second.stats.blocks_selected, first.stats.blocks_selected);
  EXPECT_EQ(second.stats.probability_mass, first.stats.probability_mass);
  EXPECT_EQ(ToSet(second.matches), ToSet(first.matches));
  EXPECT_EQ(cache.hits(), 1u);
}

// Segment shards cannot share one store directory: every shard would open
// it, an empty shard would serve an earlier shard's records a second time
// and the next non-empty shard would be refused. Build rejects the
// configuration before any shard opens; one shard on a directory, or
// ephemeral per-shard stores, still build.
TEST(ShardedSearcherTest, SegmentShardsRefuseOneSharedStoreDir) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("s3vcd_shared_store_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  for (const ShardingPolicy policy :
       {ShardingPolicy::kHilbertRange, ShardingPolicy::kRefIdHash}) {
    ShardedSearcherOptions sharding;
    sharding.num_shards = 3;
    sharding.policy = policy;
    sharding.backend = "segment";
    sharding.config.segment_store_dir = dir;
    // One video id: under kRefIdHash every record lands on one shard and
    // the other two are empty.
    core::DatabaseBuilder builder;
    Rng rng(76);
    for (uint32_t i = 0; i < 300; ++i) {
      builder.Add(UniformRandomFingerprint(&rng), 5, i);
    }
    const auto searcher = ShardedSearcher::Build(builder.Build(), sharding);
    ASSERT_FALSE(searcher.ok()) << "policy=" << static_cast<int>(policy);
    EXPECT_EQ(searcher.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(std::filesystem::exists(dir)) << "a shard was opened";
  }

  ShardedSearcherOptions one_shard;
  one_shard.num_shards = 1;
  one_shard.backend = "segment";
  one_shard.config.segment_store_dir = dir;
  auto single = ShardedSearcher::Build(BuildDb(300, 76), one_shard);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->total_size(), 300u);

  ShardedSearcherOptions ephemeral;
  ephemeral.num_shards = 3;
  ephemeral.backend = "segment";
  auto sharded = ShardedSearcher::Build(BuildDb(300, 76), ephemeral);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->total_size(), 300u);
  std::filesystem::remove_all(dir);
}

TEST(ShardedSearcherTest, RejectsInvalidShardCount) {
  ShardedSearcherOptions sharding;
  sharding.num_shards = 0;
  const auto searcher = ShardedSearcher::Build(BuildDb(10, 74), sharding);
  EXPECT_FALSE(searcher.ok());
  EXPECT_EQ(searcher.status().code(), StatusCode::kInvalidArgument);
}

TEST(SelectionCacheTest, EvictsLeastRecentlyUsed) {
  SelectionCache cache(2);
  const GaussianDistortionModel model(10.0);
  core::FilterOptions filter;
  Rng rng(8);
  const fp::Fingerprint a = UniformRandomFingerprint(&rng);
  const fp::Fingerprint b = UniformRandomFingerprint(&rng);
  const fp::Fingerprint c = UniformRandomFingerprint(&rng);
  const auto selection = std::make_shared<const core::BlockSelection>();
  cache.Insert(SelectionCache::MakeKey(a, filter, &model), selection);
  cache.Insert(SelectionCache::MakeKey(b, filter, &model), selection);
  // Touch a so b becomes the eviction victim.
  EXPECT_NE(cache.Lookup(SelectionCache::MakeKey(a, filter, &model)), nullptr);
  cache.Insert(SelectionCache::MakeKey(c, filter, &model), selection);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup(SelectionCache::MakeKey(a, filter, &model)), nullptr);
  EXPECT_EQ(cache.Lookup(SelectionCache::MakeKey(b, filter, &model)), nullptr);
  EXPECT_NE(cache.Lookup(SelectionCache::MakeKey(c, filter, &model)), nullptr);

  // Different alpha or model => different entry.
  core::FilterOptions other_alpha = filter;
  other_alpha.alpha = filter.alpha / 2;
  EXPECT_EQ(cache.Lookup(SelectionCache::MakeKey(a, other_alpha, &model)),
            nullptr);
}

// A model whose scales can change after construction — the shape of the
// ABA/mutation hazard the digest-based key exists to defeat.
class MutableScaleModel : public core::DistortionModel {
 public:
  explicit MutableScaleModel(double sigma) : sigma_(sigma) {}

  double ComponentMass(int /*component*/, double lo, double hi,
                       double /*q*/) const override {
    return hi > lo ? 0.5 : 0.0;  // irrelevant to the cache key
  }
  double ComponentScale(int /*component*/) const override { return sigma_; }

  void set_sigma(double sigma) { sigma_ = sigma; }

 private:
  double sigma_;
};

// Regression test: the cache key digests the model's per-component scales
// instead of its address, so mutating the model (or destroying it and
// reallocating a different model at the same address) can never serve a
// selection computed for the old sigmas.
TEST(SelectionCacheTest, ModelMutationInvalidatesKey) {
  SelectionCache cache(8);
  core::FilterOptions filter;
  Rng rng(9);
  const fp::Fingerprint q = UniformRandomFingerprint(&rng);

  MutableScaleModel model(10.0);
  const SelectionCache::Key before = SelectionCache::MakeKey(q, filter, &model);
  cache.Insert(before, std::make_shared<const core::BlockSelection>());
  EXPECT_NE(cache.Lookup(before), nullptr);

  // Same model object, same address — different scales.
  model.set_sigma(25.0);
  const SelectionCache::Key after = SelectionCache::MakeKey(q, filter, &model);
  EXPECT_FALSE(before == after);
  EXPECT_EQ(cache.Lookup(after), nullptr) << "stale hit for mutated model";

  // Restoring the original scales restores the original key: the digest
  // depends on the scales' values, nothing else.
  model.set_sigma(10.0);
  const SelectionCache::Key restored =
      SelectionCache::MakeKey(q, filter, &model);
  EXPECT_TRUE(before == restored);
  EXPECT_NE(cache.Lookup(restored), nullptr);

  // Two distinct model objects with identical scales share an entry (the
  // address never enters the key).
  const GaussianDistortionModel twin_a(7.0);
  const GaussianDistortionModel twin_b(7.0);
  EXPECT_EQ(SelectionCache::ModelDigest(&twin_a),
            SelectionCache::ModelDigest(&twin_b));

  // Filter algorithm/caps also enter the digest.
  core::FilterOptions other_caps = filter;
  other_caps.max_blocks = filter.max_blocks / 2;
  EXPECT_FALSE(before ==
               SelectionCache::MakeKey(q, other_caps, &model));
}

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto searcher = ShardedSearcher::Build(BuildDb(2000, 75), {});
    ASSERT_TRUE(searcher.ok());
    searcher_ = std::make_unique<ShardedSearcher>(std::move(*searcher));
  }

  std::vector<fp::Fingerprint> MakeQueries(int count, uint64_t seed) {
    Rng rng(seed);
    std::vector<fp::Fingerprint> queries;
    for (int i = 0; i < count; ++i) {
      queries.push_back(UniformRandomFingerprint(&rng));
    }
    return queries;
  }

  /// A deadline that lands mid-execution of a `num_queries` batch. It is
  /// scaled from this build's serial query latency, since a sanitizer or
  /// a loaded host slows queries and thread hand-offs alike: five times
  /// the slowest of a few timed queries, and never under 10 ms, so an idle
  /// worker picks the batch up and runs its first query well inside it.
  /// The batch's serial work takes 20 deadlines at the fastest timed pace,
  /// and no more: its per-query result slots are allocated before the
  /// first query runs, and under a sanitizer a needlessly large batch
  /// spends its whole deadline there.
  struct MidExecutionDeadline {
    double deadline_ms = 0;
    size_t num_queries = 0;
  };
  MidExecutionDeadline ScaleDeadlineToQueryLatency() {
    double slowest_ms = 0;
    double fastest_ms = 1e9;
    for (const fp::Fingerprint& q : MakeQueries(8, 102)) {
      const auto start = std::chrono::steady_clock::now();
      StatQuery(*searcher_, q, model_, TestQueryOptions());
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      slowest_ms = std::max(slowest_ms, ms);
      fastest_ms = std::min(fastest_ms, ms);
    }
    MidExecutionDeadline out;
    out.deadline_ms = std::max(10.0, 5 * slowest_ms);
    out.num_queries = static_cast<size_t>(
        std::ceil(20 * out.deadline_ms / std::max(fastest_ms, 1e-3)));
    return out;
  }

  std::unique_ptr<ShardedSearcher> searcher_;
  GaussianDistortionModel model_{14.0};
};

TEST_F(QueryServiceTest, ExecutesBatchesAndMatchesDirectQueries) {
  QueryServiceOptions options;
  options.num_workers = 2;
  options.threads_per_batch = 2;
  options.query = TestQueryOptions();
  QueryService service(searcher_.get(), &model_, options);

  const auto queries = MakeQueries(8, 9);
  auto ticket = service.Submit(queries);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  const BatchResult& result = (*ticket)->Wait();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.results.size(), queries.size());
  EXPECT_EQ(result.queries_executed, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto direct =
        StatQuery(*searcher_, queries[i], model_, options.query);
    EXPECT_EQ(ToSet(result.results[i].matches), ToSet(direct.matches)) << i;
  }
}

TEST_F(QueryServiceTest, AdmissionQueueOverflowRejectsWithUnavailable) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 3;
  options.start_paused = true;  // nothing drains until Resume
  options.query = TestQueryOptions();
  QueryService service(searcher_.get(), &model_, options);

  std::vector<BatchTicket> accepted;
  for (int i = 0; i < 3; ++i) {
    auto ticket = service.Submit(MakeQueries(2, 20 + i));
    ASSERT_TRUE(ticket.ok()) << "batch " << i;
    accepted.push_back(*ticket);
  }
  EXPECT_EQ(service.pending_batches(), 3u);

  const auto rejected = service.Submit(MakeQueries(2, 30));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  service.Resume();
  for (auto& ticket : accepted) {
    EXPECT_TRUE(ticket->Wait().status.ok());
  }
  // The queue drained, so admission opens up again.
  auto retry = service.Submit(MakeQueries(2, 31));
  EXPECT_TRUE(retry.ok());
  EXPECT_TRUE((*retry)->Wait().status.ok());
}

TEST_F(QueryServiceTest, DeadlineExpiredInQueueFailsWithoutExecuting) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  options.query = TestQueryOptions();
  QueryService service(searcher_.get(), &model_, options);

  BatchOptions batch;
  batch.deadline_ms = 1;
  auto ticket = service.Submit(MakeQueries(4, 40), batch);
  ASSERT_TRUE(ticket.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Resume();
  const BatchResult& result = (*ticket)->Wait();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.queries_executed, 0u);
  EXPECT_TRUE(result.results.empty());
  EXPECT_GE(result.queue_wait_ms, 1.0);
}

TEST_F(QueryServiceTest, SubmitAfterShutdownFails) {
  QueryServiceOptions options;
  options.query = TestQueryOptions();
  QueryService service(searcher_.get(), &model_, options);
  auto before = service.Submit(MakeQueries(2, 50));
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE((*before)->Wait().status.ok());
  service.Shutdown();
  const auto after = service.Submit(MakeQueries(2, 51));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(QueryServiceTest, ShutdownDrainsQueuedBatches) {
  QueryServiceOptions options;
  options.num_workers = 2;
  options.start_paused = true;
  options.query = TestQueryOptions();
  auto service = std::make_unique<QueryService>(searcher_.get(), &model_,
                                                options);
  std::vector<BatchTicket> tickets;
  for (int i = 0; i < 5; ++i) {
    auto ticket = service->Submit(MakeQueries(3, 60 + i));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  service->Shutdown();  // must execute everything queued while paused
  for (auto& ticket : tickets) {
    EXPECT_TRUE(ticket->done());
    EXPECT_TRUE(ticket->Wait().status.ok());
  }
}

TEST_F(QueryServiceTest, CacheServesRepeatedProbes) {
  QueryServiceOptions options;
  options.cache_capacity = 128;
  options.query = TestQueryOptions();
  QueryService service(searcher_.get(), &model_, options);
  const auto queries = MakeQueries(4, 70);

  auto first = service.Submit(queries);
  ASSERT_TRUE(first.ok());
  (*first)->Wait();
  auto second = service.Submit(queries);
  ASSERT_TRUE(second.ok());
  const BatchResult& replay = (*second)->Wait();
  ASSERT_TRUE(replay.status.ok());
  ASSERT_NE(service.cache(), nullptr);
  EXPECT_GE(service.cache()->hits(), queries.size());

  // Cached selections must not change results.
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto direct =
        StatQuery(*searcher_, queries[i], model_, options.query);
    EXPECT_EQ(ToSet(replay.results[i].matches), ToSet(direct.matches)) << i;
  }
}

// Range batches share one SelectRange across the shards and match the
// unsharded index, whether the worker runs them serially or fans them out.
TEST_F(QueryServiceTest, RangeBatchMatchesDirectRangeQueries) {
  const core::S3Index reference(BuildDb(2000, 75));
  const QueryOptions query_options = TestQueryOptions();
  const double epsilon =
      core::EqualExpectationRadius(model_, query_options.filter.alpha);
  BatchOptions batch;
  batch.paradigm = core::SearchParadigm::kRange;
  batch.epsilon = epsilon;
  const auto queries = MakeQueries(6, 90);
  for (const int threads_per_batch : {1, 4}) {
    SCOPED_TRACE(threads_per_batch);
    QueryServiceOptions options;
    options.num_workers = 1;
    options.threads_per_batch = threads_per_batch;
    options.query = query_options;
    QueryService service(searcher_.get(), &model_, options);
    auto ticket = service.Submit(queries, batch);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    const BatchResult& result = (*ticket)->Wait();
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ASSERT_EQ(result.results.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto direct =
          reference.RangeQuery(queries[i], epsilon, query_options.filter.depth);
      EXPECT_EQ(ToSet(result.results[i].matches), ToSet(direct.matches)) << i;
      EXPECT_EQ(result.results[i].stats.nodes_visited,
                direct.stats.nodes_visited)
          << i;
    }
  }
}

// The per-stage accounting contract in serial execution: the batch's
// selection/refine CPU sums are populated, they fit inside the execute
// wall time, and the stage_* histograms decompose execute exactly
// (other is the residual, unclamped here because CPU <= wall serially).
TEST_F(QueryServiceTest, StageBreakdownSumsToExecute) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  QueryServiceOptions options;
  options.num_workers = 1;
  options.threads_per_batch = 1;  // serial: CPU sums bounded by wall
  options.cache_capacity = 0;     // every query pays its own selection
  options.query = TestQueryOptions();
  QueryService service(searcher_.get(), &model_, options);

  auto ticket = service.Submit(MakeQueries(8, 91));
  ASSERT_TRUE(ticket.ok());
  const BatchResult& result = (*ticket)->Wait();
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.selection_ns, 0u);
  EXPECT_GT(result.refine_ns, 0u);
  const double stage_sum_ms =
      static_cast<double>(result.selection_ns + result.refine_ns) * 1e-6;
  EXPECT_LE(stage_sum_ms, result.execute_ms + 1e-6);

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  double execute_us = 0;
  double stages_us = 0;
  int stage_histograms = 0;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "service.execute_us") {
      EXPECT_EQ(h.count, 1u);
      execute_us = h.sum;
    } else if (h.name == "service.stage_selection_us" ||
               h.name == "service.stage_refine_us" ||
               h.name == "service.stage_other_us") {
      EXPECT_EQ(h.count, 1u) << h.name;
      stages_us += h.sum;
      ++stage_histograms;
    } else if (h.name == "service.stage_queue_us") {
      EXPECT_EQ(h.count, 1u);  // mirrors queue_wait_us batch-for-batch
    }
  }
  EXPECT_EQ(stage_histograms, 3);
  EXPECT_GT(execute_us, 0.0);
  EXPECT_NEAR(stages_us, execute_us, 1e-3 * execute_us + 1e-3);
  registry.Reset();
}

// The queued/executing split of deadline_expirations, plus the contract
// that expired batches still report both latency halves.
TEST_F(QueryServiceTest, DeadlineCounterSplitsQueuedFromExecuting) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  {
    QueryServiceOptions options;
    options.num_workers = 1;
    options.start_paused = true;
    options.query = TestQueryOptions();
    QueryService service(searcher_.get(), &model_, options);
    BatchOptions batch;
    batch.deadline_ms = 1;
    auto ticket = service.Submit(MakeQueries(4, 100), batch);
    ASSERT_TRUE(ticket.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service.Resume();
    const BatchResult& result = (*ticket)->Wait();
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    // Both latency halves populated even if nothing executed.
    EXPECT_GE(result.queue_wait_ms, 1.0);
    EXPECT_GE(result.execute_ms, 0.0);
  }
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr0("service.deadline_expired_queued"), 1u);
  EXPECT_EQ(snapshot.CounterOr0("service.deadline_expired_executing"), 0u);
  EXPECT_EQ(snapshot.CounterOr0("service.deadline_expirations"), 1u);
  for (const auto& h : snapshot.histograms) {
    if (h.name == "service.queue_wait_us" ||
        h.name == "service.execute_us") {
      EXPECT_EQ(h.count, 1u) << h.name;  // expired batches still recorded
    }
  }

  // A mid-execution expiry. On a loaded machine the OS can keep the
  // worker off the CPU for the whole deadline, so the batch expires in the
  // queue or before its first query: correct behaviour, but not the case
  // under test (seen under `ctest -j4 --repeat`). Such attempts are retried
  // with fresh counters.
  const MidExecutionDeadline scaled = ScaleDeadlineToQueryLatency();
  bool mid_execution = false;
  for (int attempt = 0; attempt < 10 && !mid_execution; ++attempt) {
    registry.Reset();
    QueryServiceOptions options;
    options.num_workers = 1;
    options.threads_per_batch = 1;  // serial path polices per query
    options.cache_capacity = 0;
    options.query = TestQueryOptions();
    QueryService service(searcher_.get(), &model_, options);
    BatchOptions batch;
    batch.deadline_ms = scaled.deadline_ms;
    // Enough work that the deadline lands mid-execution: the queue is
    // empty (an idle worker picks the batch up immediately) but the serial
    // queries take far longer than the deadline.
    auto ticket = service.Submit(
        MakeQueries(static_cast<int>(scaled.num_queries), 101), batch);
    ASSERT_TRUE(ticket.ok());
    const BatchResult& result = (*ticket)->Wait();
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_LT(result.queries_executed, scaled.num_queries);
    mid_execution = result.queries_executed > 0;
    if (!mid_execution) {
      std::printf("attempt %d: deadline %.1f ms, queued %.3f ms, executed "
                  "0 queries in %.3f ms; retrying\n",
                  attempt, batch.deadline_ms, result.queue_wait_ms,
                  result.execute_ms);
    }
  }
  ASSERT_TRUE(mid_execution) << "no attempt expired mid-execution";
  snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr0("service.deadline_expired_queued"), 0u);
  EXPECT_EQ(snapshot.CounterOr0("service.deadline_expired_executing"), 1u);
  EXPECT_EQ(snapshot.CounterOr0("service.deadline_expirations"), 1u);
  registry.Reset();
}

TEST_F(QueryServiceTest, EmptyBatchCompletesOk) {
  QueryServiceOptions options;
  options.query = TestQueryOptions();
  QueryService service(searcher_.get(), &model_, options);
  auto ticket = service.Submit({});
  ASSERT_TRUE(ticket.ok());
  const BatchResult& result = (*ticket)->Wait();
  EXPECT_TRUE(result.status.ok());
  EXPECT_TRUE(result.results.empty());
}

TEST(CancelTokenTest, DeadlineSemantics) {
  CancelToken plain;
  EXPECT_FALSE(plain.has_deadline());
  EXPECT_FALSE(plain.ShouldStop());

  CancelToken future(std::chrono::steady_clock::now() +
                     std::chrono::hours(1));
  EXPECT_TRUE(future.has_deadline());
  EXPECT_FALSE(future.ShouldStop());

  CancelToken past(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  EXPECT_TRUE(past.ShouldStop());
}

// The acceptance-criterion admission test: a queue nominally full of
// already-expired batches must not bounce fresh work — Submit purges the
// corpses instead of counting them against the bound.
TEST_F(QueryServiceTest, ExpiredQueuedBatchesDoNotHoldAdmissionSlots) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  {
    QueryServiceOptions options;
    options.num_workers = 1;
    options.start_paused = true;
    options.max_queue_depth = 2;
    options.query = TestQueryOptions();
    QueryService service(searcher_.get(), &model_, options);

    BatchOptions dying;
    dying.deadline_ms = 1;
    auto first = service.Submit(MakeQueries(2, 110), dying);
    auto second = service.Submit(MakeQueries(2, 111), dying);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(service.pending_batches(), 2u);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

    // Both slots are held by corpses; this submission must still land.
    auto fresh = service.Submit(MakeQueries(2, 112));
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(service.pending_batches(), 1u);

    // The purge completed the expired batches without executing them.
    EXPECT_TRUE((*first)->done());
    EXPECT_TRUE((*second)->done());
    EXPECT_EQ((*first)->Wait().status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ((*second)->Wait().status.code(),
              StatusCode::kDeadlineExceeded);
    EXPECT_EQ((*first)->Wait().queries_executed, 0u);

    service.Resume();
    EXPECT_TRUE((*fresh)->Wait().status.ok());
  }
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  // No spurious kUnavailable: zero admission rejects.
  EXPECT_EQ(snapshot.CounterOr0("service.admission_rejects"), 0u);
  EXPECT_EQ(snapshot.CounterOr0("service.deadline_expired_queued"), 2u);
  registry.Reset();
}

// A deadline must not force a batch onto the serial path — the pooled
// fan-out runs and polls the CancelToken instead: the worker's pool runs
// one selection task per query and one scan task per (query, shard).
TEST_F(QueryServiceTest, DeadlinedBatchesUsePooledFanout) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  QueryServiceOptions options;
  options.num_workers = 1;
  options.threads_per_batch = 4;
  options.query = TestQueryOptions();
  QueryService service(searcher_.get(), &model_, options);

  BatchOptions batch;
  batch.deadline_ms = 60000;  // generous — expiry never fires
  const auto queries = MakeQueries(8, 120);
  auto ticket = service.Submit(queries, batch);
  ASSERT_TRUE(ticket.ok());
  const BatchResult& result = (*ticket)->Wait();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(registry.Snapshot().CounterOr0("thread_pool.tasks_completed"),
            queries.size() * (1 + searcher_->num_shards()));
  EXPECT_EQ(result.queries_executed, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto direct =
        StatQuery(*searcher_, queries[i], model_, options.query);
    EXPECT_EQ(ToSet(result.results[i].matches), ToSet(direct.matches)) << i;
  }
}

TEST_F(QueryServiceTest, PooledDeadlineMidExecutionStopsEarly) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.threads_per_batch = 2;
  options.cache_capacity = 0;
  options.query = TestQueryOptions();
  QueryService service(searcher_.get(), &model_, options);

  const MidExecutionDeadline scaled = ScaleDeadlineToQueryLatency();
  BatchOptions batch;
  batch.deadline_ms = scaled.deadline_ms;
  auto ticket = service.Submit(
      MakeQueries(static_cast<int>(scaled.num_queries), 121), batch);
  ASSERT_TRUE(ticket.ok());
  const BatchResult& result = (*ticket)->Wait();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(result.queries_executed, scaled.num_queries);
  // Unexecuted slots are empty.
  ASSERT_EQ(result.results.size(), scaled.num_queries);
}

// A range batch with a negative or non-finite epsilon would abort a worker
// on the filter's epsilon >= 0 check. Submit rejects it up front, before
// admission, so it takes no slot.
TEST_F(QueryServiceTest, RangeBatchWithInvalidEpsilonIsRejected) {
  QueryServiceOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  options.max_queue_depth = 1;
  options.query = TestQueryOptions();
  QueryService service(searcher_.get(), &model_, options);

  BatchOptions range;
  range.paradigm = core::SearchParadigm::kRange;
  for (const double epsilon : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    range.epsilon = epsilon;
    const auto rejected = service.Submit(MakeQueries(2, 560), range);
    ASSERT_FALSE(rejected.ok()) << epsilon;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(service.pending_batches(), 0u);

  // The single slot is still free.
  range.epsilon =
      core::EqualExpectationRadius(model_, options.query.filter.alpha);
  auto ticket = service.Submit(MakeQueries(2, 560), range);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  EXPECT_EQ(service.pending_batches(), 1u);
  service.Resume();
  EXPECT_TRUE((*ticket)->Wait().status.ok());
}

// Multi-producer completion race, run under TSan by tools/run_tsan_tests.sh:
// producers submit concurrently (and purge expired batches on their own
// threads) while pooled workers execute. Every accepted batch completes
// exactly once, either OK with direct-query parity or past its deadline.
TEST_F(QueryServiceTest, ConcurrentProducersCompleteEveryBatchOnce) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  QueryServiceOptions options;
  options.num_workers = 2;
  options.threads_per_batch = 2;
  options.query = TestQueryOptions();
  QueryService service(searcher_.get(), &model_, options);

  constexpr int kProducers = 4;
  constexpr int kBatchesPerProducer = 50;
  struct Accepted {
    uint64_t seed;
    BatchTicket ticket;
  };
  std::vector<std::vector<Accepted>> accepted(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int b = 0; b < kBatchesPerProducer; ++b) {
        BatchOptions batch;
        // No deadline, a 1 ms deadline, or a generous one, in turn.
        batch.deadline_ms = b % 3 == 0 ? 0 : (b % 3 == 1 ? 1 : 60000);
        const uint64_t seed = 2000 + p * kBatchesPerProducer + b;
        auto ticket = service.Submit(MakeQueries(2, seed), batch);
        if (ticket.ok()) {
          accepted[p].push_back({seed, *ticket});
        } else {
          EXPECT_EQ(ticket.status().code(), StatusCode::kUnavailable);
        }
      }
    });
  }
  for (std::thread& producer : producers) {
    producer.join();
  }

  uint64_t accepted_count = 0;
  for (const auto& mine : accepted) {
    for (const Accepted& a : mine) {
      ++accepted_count;
      const BatchResult& result = a.ticket->Wait();
      if (!result.status.ok()) {
        EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
        continue;
      }
      const auto queries = MakeQueries(2, a.seed);
      ASSERT_EQ(result.results.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const auto direct =
            StatQuery(*searcher_, queries[i], model_, options.query);
        EXPECT_EQ(ToSet(result.results[i].matches), ToSet(direct.matches))
            << "seed=" << a.seed << " query=" << i;
      }
    }
  }
  EXPECT_GT(accepted_count, 0u);
  EXPECT_EQ(service.pending_batches(), 0u);
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr0("service.batches_submitted"), accepted_count);
  EXPECT_EQ(snapshot.CounterOr0("service.batches_completed"), accepted_count);
  registry.Reset();
}

// One admission queue, drained in submission order: on a paused
// one-worker service, batches complete in the order they were submitted.
// A batch starts executing at its submission time plus its queue wait.
// The submission time lies between the clock readings taken just before
// and just after Submit, so each ticket bounds the interval its batch ran
// in. One worker runs one batch at a time: in submission order, the latest
// possible start of each batch is no earlier than the earliest possible
// end of the batch before it. A worker that ran a later batch first would
// end it before the earlier batch started, and fail the check.
TEST_F(QueryServiceTest, BatchesCompleteInSubmissionOrder) {
  using Clock = std::chrono::steady_clock;
  constexpr size_t kBatches = 6;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.start_paused = true;
  options.query = TestQueryOptions();
  QueryService service(searcher_.get(), &model_, options);

  std::vector<BatchTicket> tickets;
  std::vector<Clock::time_point> before_submit;
  std::vector<Clock::time_point> after_submit;
  for (size_t i = 0; i < kBatches; ++i) {
    std::vector<fp::Fingerprint> queries =
        MakeQueries(static_cast<int>(i + 1), 500 + i);
    before_submit.push_back(Clock::now());
    auto ticket = service.Submit(std::move(queries));
    after_submit.push_back(Clock::now());
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(*ticket);
  }
  EXPECT_EQ(service.pending_batches(), kBatches);
  service.Resume();
  for (size_t i = 0; i < kBatches; ++i) {
    EXPECT_TRUE(tickets[i]->Wait().status.ok());
    // Every earlier batch finished before this one started.
    for (size_t j = 0; j < i; ++j) {
      EXPECT_TRUE(tickets[j]->done()) << j << " after " << i;
    }
  }

  // Milliseconds since the first clock reading.
  const auto ms = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - before_submit[0])
        .count();
  };
  for (size_t i = 1; i < kBatches; ++i) {
    const BatchResult& previous = tickets[i - 1]->Wait();
    const BatchResult& current = tickets[i]->Wait();
    const double previous_earliest_end = ms(before_submit[i - 1]) +
                                         previous.queue_wait_ms +
                                         previous.execute_ms;
    const double current_latest_start =
        ms(after_submit[i]) + current.queue_wait_ms;
    EXPECT_GE(current_latest_start, previous_earliest_end)
        << "batch " << i << " ran before batch " << i - 1;
  }
}

}  // namespace
}  // namespace s3vcd::service
