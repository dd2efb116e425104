// Tests for the observability layer (src/obs/): metric exactness under
// concurrency, histogram bucket semantics, snapshot-while-writing safety,
// trace JSON well-formedness, and the S3VCD_CHECK_OK helper.

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/index.h"
#include "core/knn.h"
#include "core/lsh.h"
#include "core/searcher.h"
#include "core/synthetic_db.h"
#include "core/vafile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/sharded_searcher.h"
#include "store/make_searcher.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace s3vcd::obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(CounterTest, IncrementByNAndReset) {
  Counter counter("test.by_n");
  counter.Increment(5);
  counter.Increment(7);
  EXPECT_EQ(counter.Value(), 12u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, SetAddSubtract) {
  Gauge gauge("test.gauge");
  gauge.Set(10);
  gauge.Add(5);
  gauge.Subtract(3);
  EXPECT_EQ(gauge.Value(), 12);
  gauge.Set(-4);
  EXPECT_EQ(gauge.Value(), -4);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  // Bucket i counts v <= bounds[i]; the last bucket is overflow.
  Histogram histogram("test.buckets", {1.0, 2.0, 4.0});
  histogram.Record(0.5);   // <= 1 -> bucket 0
  histogram.Record(1.0);   // <= 1 -> bucket 0 (inclusive)
  histogram.Record(1.5);   // <= 2 -> bucket 1
  histogram.Record(4.0);   // <= 4 -> bucket 2
  histogram.Record(4.01);  // overflow
  const std::vector<uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(histogram.Count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 0.5 + 1.0 + 1.5 + 4.0 + 4.01);
  EXPECT_DOUBLE_EQ(histogram.Min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.Max(), 4.01);
}

TEST(HistogramTest, ConcurrentRecordsCountExactly) {
  Histogram histogram("test.concurrent_hist", {10.0, 100.0});
  constexpr int kThreads = 6;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<double>(t));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(histogram.Count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const std::vector<uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], histogram.Count());  // all values <= 10
}

TEST(SnapshotTest, PercentileInterpolatesWithinBuckets) {
  Histogram histogram("test.pct", {1.0, 2.0, 4.0});
  for (int i = 0; i < 90; ++i) {
    histogram.Record(0.5);
  }
  for (int i = 0; i < 10; ++i) {
    histogram.Record(3.0);
  }
  MetricsSnapshot::HistogramValue value{
      histogram.name(),  histogram.bounds(), histogram.BucketCounts(),
      histogram.Count(), histogram.Sum(),    histogram.Min(),
      histogram.Max()};
  // p50 lands 50/90 of the way through bucket 0, which spans [min, 1].
  EXPECT_NEAR(value.Percentile(0.5), 0.5 + (50.0 / 90.0) * 0.5, 1e-12);
  // p95 lands halfway through bucket 2 ([2, 4] -> 3.0), within [min, max].
  EXPECT_DOUBLE_EQ(value.Percentile(0.95), 3.0);
  EXPECT_NEAR(value.Mean(), (90 * 0.5 + 10 * 3.0) / 100.0, 1e-12);
}

TEST(SnapshotTest, PercentilePinnedOnUniformBuckets) {
  // 25 samples per bucket over equal-width buckets: the interpolated
  // percentile is (near-)linear in p across the whole range.
  Histogram histogram("test.pct_uniform", {25.0, 50.0, 75.0, 100.0});
  for (int v = 1; v <= 100; ++v) {
    histogram.Record(static_cast<double>(v));
  }
  MetricsSnapshot::HistogramValue value{
      histogram.name(),  histogram.bounds(), histogram.BucketCounts(),
      histogram.Count(), histogram.Sum(),    histogram.Min(),
      histogram.Max()};
  EXPECT_DOUBLE_EQ(value.Percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(value.Percentile(0.75), 75.0);
  EXPECT_DOUBLE_EQ(value.Percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(value.Percentile(1.0), 100.0);
}

TEST(SnapshotTest, PercentileOverflowBucketUsesLifetimeMax) {
  // Everything lands in the unbounded overflow bucket: interpolation spans
  // [last bound, max] and the result clamps to the observed extrema.
  Histogram histogram("test.pct_overflow", {1.0});
  histogram.Record(5.0);
  histogram.Record(10.0);
  MetricsSnapshot::HistogramValue value{
      histogram.name(),  histogram.bounds(), histogram.BucketCounts(),
      histogram.Count(), histogram.Sum(),    histogram.Min(),
      histogram.Max()};
  EXPECT_DOUBLE_EQ(value.Percentile(0.5), 5.5);   // 1 + 0.5 * (10 - 1)
  EXPECT_DOUBLE_EQ(value.Percentile(1.0), 10.0);  // clamp to max
  EXPECT_DOUBLE_EQ(value.Percentile(0.01), 5.0);  // clamp to min
}

TEST(SnapshotTest, PercentileSingleValueReturnsThatValue) {
  Histogram histogram("test.pct_single", {10.0});
  histogram.Record(7.0);
  MetricsSnapshot::HistogramValue value{
      histogram.name(),  histogram.bounds(), histogram.BucketCounts(),
      histogram.Count(), histogram.Sum(),    histogram.Min(),
      histogram.Max()};
  for (double p : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(value.Percentile(p), 7.0);
  }
}

TEST(SnapshotTest, PercentileEmptyHistogramIsZero) {
  MetricsSnapshot::HistogramValue value{"test.pct_empty", {1.0}, {0, 0},
                                        0,               0,     0,
                                        0};
  EXPECT_DOUBLE_EQ(value.Percentile(0.5), 0.0);
}

TEST(SnapshotTest, JsonCarriesTailPercentiles) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.GetHistogram("test.tail_hist", {1.0, 10.0})->Record(5.0);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  registry.Reset();
}

TEST(SnapshotTest, SnapshotWhileWritingIsSafeAndMonotone) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  Counter* counter = registry.GetCounter("test.snapshot_race");
  constexpr uint64_t kTotal = 400000;
  std::atomic<bool> done{false};
  std::thread writer([counter] {
    for (uint64_t i = 0; i < kTotal; ++i) {
      counter->Increment();
    }
  });
  uint64_t last = 0;
  while (!done.load(std::memory_order_acquire)) {
    const MetricsSnapshot snapshot = registry.Snapshot();
    const uint64_t now = snapshot.CounterOr0("test.snapshot_race");
    EXPECT_GE(now, last);
    EXPECT_LE(now, kTotal);
    last = now;
    if (now == kTotal) {
      done.store(true, std::memory_order_release);
    }
  }
  writer.join();
  EXPECT_EQ(registry.Snapshot().CounterOr0("test.snapshot_race"), kTotal);
  registry.Reset();
}

TEST(SnapshotTest, JsonContainsRegisteredMetrics) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.GetCounter("test.json_counter")->Increment(3);
  registry.GetGauge("test.json_gauge")->Set(-7);
  registry.GetHistogram("test.json_hist", {1.0, 10.0})->Record(5.0);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
  registry.Reset();
}

// Braces/brackets balanced outside strings, and quotes balanced: cheap
// structural well-formedness without a JSON parser dependency.
void ExpectBalancedJson(const std::string& json) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
        ++braces;
        break;
      case '}':
        --braces;
        EXPECT_GE(braces, 0);
        break;
      case '[':
        ++brackets;
        break;
      case ']':
        --brackets;
        EXPECT_GE(brackets, 0);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(SnapshotTest, JsonIsStructurallyWellFormed) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  registry.GetCounter("test.wf_counter")->Increment();
  registry.GetHistogram("test.wf_hist")->Record(123.0);
  ExpectBalancedJson(registry.Snapshot().ToJson());
  registry.Reset();
}

TEST(TraceTest, SpansAppearInChromeJson) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  {
    S3VCD_TRACE_SPAN("test.outer");
    S3VCD_TRACE_SPAN("test.inner");
  }
  recorder.Disable();
  const std::vector<TraceEvent> events = recorder.Collect();
  ASSERT_GE(events.size(), 2u);
  const std::string json = recorder.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  ExpectBalancedJson(json);
  recorder.Clear();
}

TEST(TraceTest, EventsAreSortedAndDurationsNonNegative) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  for (int i = 0; i < 10; ++i) {
    S3VCD_TRACE_SPAN("test.sorted");
  }
  recorder.Disable();
  const std::vector<TraceEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 10u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_LE(events[i].start_ns, events[i].end_ns);
    if (i > 0) {
      EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
    }
  }
  recorder.Clear();
}

TEST(TraceTest, RingOverwritesOldestEvents) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable(/*capacity_per_thread=*/8);
  for (int i = 0; i < 100; ++i) {
    S3VCD_TRACE_SPAN("test.ring");
  }
  recorder.Disable();
  EXPECT_LE(recorder.Collect().size(), 8u);
  recorder.Clear();
  recorder.Enable();  // restore the default capacity for later tests
  recorder.Disable();
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Disable();
  {
    S3VCD_TRACE_SPAN("test.disabled");
  }
  EXPECT_TRUE(recorder.Collect().empty());
}

TEST(TraceTest, ConcurrentSpansFromManyThreadsAllCollected) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        S3VCD_TRACE_SPAN("test.mt");
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  recorder.Disable();
  EXPECT_EQ(recorder.Collect().size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  recorder.Clear();
}

TEST(CheckOkTest, OkStatusPasses) {
  S3VCD_CHECK_OK(Status::OK());  // must not abort
}

TEST(CheckOkDeathTest, NonOkStatusAborts) {
  EXPECT_DEATH(S3VCD_CHECK_OK(Status::InvalidArgument("bad arg")),
               "bad arg");
}

// The acceptance contract of the metrics layer: every query path — each
// served backend's statistical and range query, the VA-file and LSH range
// queries, both kNN searches and the sharded service's statistical and
// range batches over block-structured and over seqscan/vamana shards —
// publishes exactly one index.* record per query, and the
// global counters record exactly what the per-query QueryStats report.
TEST(QueryMetricsParityTest, CountersMatchQueryStats) {
  const auto make_db = [] {
    Rng rng(42);
    core::DatabaseBuilder builder;
    for (int i = 0; i < 3000; ++i) {
      builder.Add(core::UniformRandomFingerprint(&rng),
                  static_cast<uint32_t>(i % 10), static_cast<uint32_t>(i));
    }
    return builder.Build();
  };
  const core::FingerprintDatabase db = make_db();
  std::vector<core::FingerprintRecord> records;
  for (size_t i = 0; i < db.size(); ++i) {
    records.push_back(db.record(i));
  }
  const core::GaussianDistortionModel model(20.0);
  core::QueryOptions options;
  options.filter.alpha = 0.8;
  options.filter.depth = 10;
  const double epsilon = core::EqualExpectationRadius(model, 0.8);
  Rng rng(7);
  std::vector<fp::Fingerprint> queries;
  for (int q = 0; q < 8; ++q) {
    queries.push_back(
        q % 2 == 0
            ? core::DistortFingerprint(db.record(q * 300).descriptor, 20.0,
                                       &rng)
            : core::UniformRandomFingerprint(&rng));
  }

  using Batch = std::vector<core::QueryResult>;
  using Run = std::function<Batch(const std::vector<fp::Fingerprint>&)>;
  // A path that answers one query per call, run over the whole batch.
  const auto each =
      [](std::function<core::QueryResult(const fp::Fingerprint&)> one) {
        return Run([one](const std::vector<fp::Fingerprint>& batch) {
          Batch results;
          for (const fp::Fingerprint& q : batch) {
            results.push_back(one(q));
          }
          return results;
        });
      };
  struct Case {
    std::string name;
    std::string counter;  // the index.queries.* counter each query bumps
    Run run;
  };
  std::vector<std::unique_ptr<core::Searcher>> backends;
  std::vector<Case> cases;
  for (const std::string_view name : store::kSearcherBackends) {
    auto backend = store::MakeSearcher(name, make_db());
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    const core::Searcher* searcher = backend->get();
    backends.push_back(std::move(*backend));
    cases.push_back(
        {std::string(name) + " StatQuery", "index.queries.statistical",
         each([searcher, &model, &options](const fp::Fingerprint& q) {
           return searcher->StatQuery(q, model, options);
         })});
    cases.push_back({std::string(name) + " RangeQuery", "index.queries.range",
                     each([searcher, epsilon](const fp::Fingerprint& q) {
                       return searcher->RangeQuery(q, epsilon, 10);
                     })});
  }
  const core::VAFile vafile(records, core::VAFileOptions{});
  const core::LshIndex lsh(records, core::LshOptions{});
  const core::S3Index index(make_db());
  cases.push_back({"vafile RangeQuery", "index.queries.range",
                   each([&](const fp::Fingerprint& q) {
                     return vafile.RangeQuery(q, epsilon);
                   })});
  cases.push_back({"lsh RangeQuery", "index.queries.range",
                   each([&](const fp::Fingerprint& q) {
                     return lsh.RangeQuery(q, epsilon);
                   })});
  cases.push_back({"vafile KnnQuery", "index.queries.knn",
                   each([&](const fp::Fingerprint& q) {
                     return vafile.KnnQuery(q, 10);
                   })});
  cases.push_back({"s3 KnnQuery", "index.queries.knn",
                   each([&](const fp::Fingerprint& q) {
                     return core::KnnQuery(index, q, core::KnnOptions{});
                   })});
  // Four shards share one selection per query: one record, not four.
  service::ShardedSearcherOptions sharding;
  sharding.num_shards = 4;
  auto sharded = service::ShardedSearcher::Build(make_db(), sharding);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ThreadPool pool(2);
  cases.push_back({"sharded statistical batch", "index.queries.statistical",
                   [&](const std::vector<fp::Fingerprint>& batch) {
                     return sharded->RunBatch(
                         batch, service::BatchSpec::Statistical(model, options),
                         &pool);
                   }});
  cases.push_back({"sharded range batch", "index.queries.range",
                   [&](const std::vector<fp::Fingerprint>& batch) {
                     return sharded->RunBatch(
                         batch, service::BatchSpec::Range(epsilon, 10), &pool);
                   }});

  // Backends without block structure have no selection to share: each
  // shard answers its own ball query and the batch still publishes one
  // merged record per query.
  std::vector<service::ShardedSearcher> unselected;
  for (const std::string backend : {"seqscan", "vamana"}) {
    service::ShardedSearcherOptions three;
    three.num_shards = 3;
    three.backend = backend;
    auto built = service::ShardedSearcher::Build(make_db(), three);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    unselected.push_back(std::move(*built));
  }
  for (const service::ShardedSearcher& searcher : unselected) {
    const std::string backend = searcher.options().backend;
    cases.push_back(
        {"3-shard " + backend + " statistical batch",
         "index.queries.statistical",
         [&](const std::vector<fp::Fingerprint>& batch) {
           return searcher.RunBatch(
               batch, service::BatchSpec::Statistical(model, options), &pool);
         }});
    cases.push_back({"3-shard " + backend + " range batch",
                     "index.queries.range",
                     [&](const std::vector<fp::Fingerprint>& batch) {
                       return searcher.RunBatch(
                           batch, service::BatchSpec::Range(epsilon, 10),
                           nullptr);
                     }});
  }

  MetricsRegistry& registry = MetricsRegistry::Global();
  std::map<std::string, uint64_t> nodes_visited;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    registry.Reset();
    core::QueryStats totals;
    uint64_t total_matches = 0;
    const Batch results = c.run(queries);
    ASSERT_EQ(results.size(), queries.size());
    for (const core::QueryResult& result : results) {
      totals.blocks_selected += result.stats.blocks_selected;
      totals.nodes_visited += result.stats.nodes_visited;
      totals.ranges_scanned += result.stats.ranges_scanned;
      totals.records_scanned += result.stats.records_scanned;
      total_matches += result.matches.size();
    }
    const MetricsSnapshot snapshot = registry.Snapshot();
    for (const char* counter :
         {"index.queries.statistical", "index.queries.range",
          "index.queries.seq_scan", "index.queries.knn"}) {
      EXPECT_EQ(snapshot.CounterOr0(counter),
                counter == c.counter ? queries.size() : 0u)
          << counter;
    }
    EXPECT_GT(totals.records_scanned, 0u);
    EXPECT_EQ(snapshot.CounterOr0("index.blocks_selected"),
              totals.blocks_selected);
    EXPECT_EQ(snapshot.CounterOr0("index.nodes_visited"),
              totals.nodes_visited);
    EXPECT_EQ(snapshot.CounterOr0("index.ranges_scanned"),
              totals.ranges_scanned);
    EXPECT_EQ(snapshot.CounterOr0("index.records_scanned"),
              totals.records_scanned);
    EXPECT_EQ(snapshot.CounterOr0("index.matches"), total_matches);
    nodes_visited[c.name] = snapshot.CounterOr0("index.nodes_visited");
  }
  // The sharded range batch does one range selection per query, the same
  // one the unsharded index does.
  EXPECT_GT(nodes_visited["s3 RangeQuery"], 0u);
  EXPECT_EQ(nodes_visited["sharded range batch"],
            nodes_visited["s3 RangeQuery"]);
  registry.Reset();
}

}  // namespace
}  // namespace s3vcd::obs
