#include "service/sharded_searcher.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "util/timer.h"

namespace s3vcd::service {

namespace {

obs::Counter* const g_queries =
    obs::MetricsRegistry::Global().GetCounter("service.sharded_queries");

// Mixes the 32-bit video id into an unbiased 64-bit hash (splitmix64
// finalizer) so consecutive ids spread across shards.
uint64_t HashId(uint32_t id) {
  uint64_t z = static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

ShardedSearcher::ShardedSearcher(
    ShardedSearcherOptions options,
    std::vector<std::unique_ptr<core::Searcher>> shards)
    : options_(std::move(options)), shards_(std::move(shards)) {
  shard_scan_us_.reserve(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    shard_scan_us_.push_back(obs::MetricsRegistry::Global().GetHistogram(
        "service.shard" + std::to_string(k) + ".scan_us"));
  }
}

Result<ShardedSearcher> ShardedSearcher::Build(
    core::FingerprintDatabase db, const ShardedSearcherOptions& options) {
  if (options.num_shards < 1 || options.num_shards > 1024) {
    return Status::InvalidArgument("num_shards must be in [1, 1024]");
  }
  S3VCD_RETURN_IF_ERROR(store::CheckSearcherBackend(options.backend));
  if (options.backend == "segment" &&
      !options.config.segment_store_dir.empty() && options.num_shards > 1) {
    // Every shard would open the same directory: the first fills it, an
    // empty shard then reopens it as authoritative and serves its records
    // a second time, and the next non-empty shard is refused.
    return Status::InvalidArgument(
        "a segment store directory holds one shard; use num_shards = 1 or "
        "leave segment_store_dir empty for ephemeral per-shard stores");
  }
  const size_t num_shards = static_cast<size_t>(options.num_shards);
  const size_t n = db.size();

  std::vector<core::DatabaseBuilder> builders(num_shards);

  if (options.policy == ShardingPolicy::kHilbertRange) {
    // Records are already Hilbert-sorted; cut them into K contiguous
    // near-equal chunks.
    const size_t chunk = (n + num_shards - 1) / std::max<size_t>(1, num_shards);
    for (size_t i = 0; i < n; ++i) {
      const size_t k =
          chunk == 0 ? 0 : std::min(num_shards - 1, i / chunk);
      const core::FingerprintRecord& r = db.record(i);
      builders[k].Add(r.descriptor, r.id, r.time_code, r.x, r.y);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const core::FingerprintRecord& r = db.record(i);
      builders[HashId(r.id) % num_shards].Add(r.descriptor, r.id, r.time_code,
                                              r.x, r.y);
    }
  }

  std::vector<std::unique_ptr<core::Searcher>> shards;
  shards.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    S3VCD_ASSIGN_OR_RETURN(
        std::unique_ptr<core::Searcher> shard,
        store::MakeSearcher(options.backend, builders[k].Build(),
                            options.config));
    shards.push_back(std::move(shard));
  }
  return ShardedSearcher(options, std::move(shards));
}

size_t ShardedSearcher::total_size() const {
  size_t total = 0;
  for (const std::unique_ptr<core::Searcher>& shard : shards_) {
    total += shard->Stats().records;
  }
  return total;
}

BatchSpec BatchSpec::Statistical(const core::DistortionModel& model,
                                 const core::QueryOptions& options) {
  BatchSpec spec;
  spec.model = &model;
  spec.options = options;
  return spec;
}

BatchSpec BatchSpec::Range(double epsilon, int depth) {
  BatchSpec spec;
  spec.paradigm = core::SearchParadigm::kRange;
  spec.epsilon = epsilon;
  spec.depth = depth;
  return spec;
}

namespace {

bool IsRange(const BatchSpec& spec) {
  return spec.paradigm == core::SearchParadigm::kRange;
}

// One query's progress through RunBatch. The query's selection task writes
// `selection` and `head` before it submits the scan tasks; scan task k
// writes only partials[k] and scanned[k] (uint8_t, not bool: concurrent
// writers of distinct vector<bool> elements would race on the shared
// word). Everything is read after the batch's last task.
struct QueryRun {
  std::shared_ptr<const core::BlockSelection> selection;
  /// The selection's stats: time, cache hit, blocks, nodes and mass.
  core::QueryStats head;
  std::vector<core::QueryResult> partials;
  std::vector<uint8_t> scanned;
};

// Step 1. One selection serves every shard: it depends only on the query
// and the filter parameters (see the class comment). All shards share the
// one partition, so shard 0's filter is the canonical one.
void Select(const core::BlockFilter& filter, const fp::Fingerprint& query,
            const BatchSpec& spec, SelectionCache* cache, QueryRun* run) {
  S3VCD_TRACE_SPAN("index.filter");
  Stopwatch watch;
  if (IsRange(spec)) {
    run->selection = std::make_shared<const core::BlockSelection>(
        filter.SelectRange(query, spec.epsilon, spec.depth, 1 << 20,
                           &core::ThreadLocalSelectionScratch()));
  } else {
    SelectionCache::Key key;
    if (cache != nullptr) {
      key = SelectionCache::MakeKey(query, spec.options.filter, spec.model);
      run->selection = cache->Lookup(key);
      run->head.selection_cached = run->selection != nullptr;
    }
    if (run->selection == nullptr) {
      run->selection = std::make_shared<const core::BlockSelection>(
          filter.SelectStatistical(query, *spec.model, spec.options.filter,
                                   &core::ThreadLocalSelectionScratch()));
      if (cache != nullptr) {
        cache->Insert(key, run->selection);
      }
    }
  }
  run->head.selection_ns = watch.ElapsedNanos();
  run->head.blocks_selected = run->selection->num_blocks;
  // A cached hit ran no selection: re-reporting the stored selection's
  // nodes_visited would double-count selection work in # METRICS blocks.
  // blocks_selected / probability_mass stay — they describe the region
  // actually scanned, cached or not.
  run->head.nodes_visited =
      run->head.selection_cached ? 0 : run->selection->nodes_visited;
  run->head.probability_mass = run->selection->probability_mass;
}

// Step 2 on one shard: a scan of the shared selection, or without one the
// shard's unpublished ball query at the range's epsilon or the
// statistical query's equal-expectation radius.
core::QueryResult ScanShard(const core::Searcher& shard,
                            obs::Histogram* scan_us,
                            const fp::Fingerprint& query,
                            const BatchSpec& spec,
                            const core::BlockSelection* selection) {
  Stopwatch watch;
  core::QueryResult partial;
  if (selection != nullptr) {
    S3VCD_TRACE_SPAN("index.refine");
    if (IsRange(spec)) {
      shard.ScanSelection(query, *selection,
                          core::RefinementMode::kRadiusFilter, spec.epsilon,
                          nullptr, &partial);
    } else {
      shard.ScanSelection(query, *selection, spec.options.refinement,
                          spec.options.radius, spec.model, &partial);
    }
    partial.stats.refine_ns = watch.ElapsedNanos();
  } else {
    partial = shard.BallQuery(
        query, IsRange(spec) ? spec.epsilon
                             : core::EqualExpectationRadius(
                                   *spec.model, spec.options.filter.alpha));
  }
  scan_us->Record(watch.ElapsedMicros());
  return partial;
}

// Step 3. The shards' scan stats carry no selection fields, so summing
// every partial onto the selection's head is right in both modes; without
// a shared selection the head is empty and the shards' own stats (vamana's
// beam expansions count as nodes visited) add up instead.
core::QueryResult Merge(const BatchSpec& spec, QueryRun* run) {
  core::QueryResult result;
  result.stats = run->head;
  for (core::QueryResult& partial : run->partials) {
    result.matches.insert(result.matches.end(),
                          std::make_move_iterator(partial.matches.begin()),
                          std::make_move_iterator(partial.matches.end()));
    core::QueryStats& stats = result.stats;
    // Summed across shards: CPU time, not wall time, under fan-out.
    stats.selection_ns += partial.stats.selection_ns;
    stats.refine_ns += partial.stats.refine_ns;
    stats.blocks_selected += partial.stats.blocks_selected;
    stats.nodes_visited += partial.stats.nodes_visited;
    stats.ranges_scanned += partial.stats.ranges_scanned;
    stats.records_scanned += partial.stats.records_scanned;
    stats.probability_mass =
        std::max(stats.probability_mass, partial.stats.probability_mass);
  }
  g_queries->Increment();
  // No shard published: this is the query's one index.* record.
  core::RecordQueryMetrics(IsRange(spec) ? core::QueryKind::kRange
                                         : core::QueryKind::kStatistical,
                           result.stats, result.matches.size());
  return result;
}

}  // namespace

std::vector<core::QueryResult> ShardedSearcher::RunBatch(
    const std::vector<fp::Fingerprint>& queries, const BatchSpec& spec,
    ThreadPool* pool, SelectionCache* cache, const CancelToken* cancel,
    size_t* executed) const {
  S3VCD_TRACE_SPAN("service.sharded_batch");
  const size_t n = queries.size();
  const size_t num_shards = shards_.size();
  const core::BlockFilter* filter = shards_[0]->selection_filter();
  const auto stopped = [cancel] {
    return cancel != nullptr && cancel->ShouldStop();
  };
  // Inline without a pool: each query then runs all its steps before the
  // next one starts.
  const auto run = [pool](auto task) {
    if (pool != nullptr) {
      pool->Submit(std::move(task));
    } else {
      task();
    }
  };

  std::vector<QueryRun> runs(n);
  for (size_t i = 0; i < n; ++i) {
    run([&, i] {
      if (stopped()) {
        return;  // no scan is submitted: the query stays incomplete
      }
      QueryRun& r = runs[i];
      r.partials.resize(num_shards);
      r.scanned.assign(num_shards, 0);
      if (filter != nullptr) {
        Select(*filter, queries[i], spec, cache, &r);
      }
      for (size_t k = 0; k < num_shards; ++k) {
        run([&, i, k] {
          if (stopped()) {
            return;
          }
          QueryRun& q = runs[i];
          q.partials[k] = ScanShard(*shards_[k], shard_scan_us_[k],
                                    queries[i], spec, q.selection.get());
          q.scanned[k] = 1;
        });
      }
    });
  }
  if (pool != nullptr) {
    pool->Wait();
  }

  std::vector<core::QueryResult> results(n);
  size_t done = 0;
  for (size_t i = 0; i < n; ++i) {
    // A partially-scanned query would look like a complete result with
    // silently missing matches; it keeps the default (empty) result and
    // stays out of the executed count instead.
    if (static_cast<size_t>(std::ranges::count(runs[i].scanned, 1)) !=
        num_shards) {
      continue;
    }
    results[i] = Merge(spec, &runs[i]);
    ++done;
  }
  if (executed != nullptr) {
    *executed = done;
  }
  return results;
}

}  // namespace s3vcd::service
