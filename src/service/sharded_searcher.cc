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
  const int order = db.order();
  const size_t n = db.size();

  std::vector<core::DatabaseBuilder> builders;
  builders.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    builders.emplace_back(order);
  }

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

std::shared_ptr<const core::BlockSelection> ShardedSearcher::GetSelection(
    const fp::Fingerprint& query, const core::DistortionModel& model,
    const core::QueryOptions& options, SelectionCache* cache,
    uint64_t* selection_ns, bool* cached) const {
  // One selection serves every shard: it depends only on the query, the
  // model and the filter options (see class comment). Shard 0's filter is
  // the canonical one (all shards share the curve geometry). Backends
  // without block structure have no filter — callers fall back to
  // per-shard statistical queries.
  *cached = false;
  const core::BlockFilter* filter = shards_[0]->selection_filter();
  if (filter == nullptr) {
    return nullptr;
  }
  Stopwatch watch;
  std::shared_ptr<const core::BlockSelection> selection;
  if (cache != nullptr) {
    const SelectionCache::Key key =
        SelectionCache::MakeKey(query, options.filter, &model);
    selection = cache->Lookup(key);
    if (selection != nullptr) {
      *cached = true;
    } else {
      selection = std::make_shared<const core::BlockSelection>(
          filter->SelectStatistical(query, model, options.filter,
                                    &core::ThreadLocalSelectionScratch()));
      cache->Insert(key, selection);
    }
  } else {
    selection = std::make_shared<const core::BlockSelection>(
        filter->SelectStatistical(query, model, options.filter,
                                  &core::ThreadLocalSelectionScratch()));
  }
  *selection_ns = watch.ElapsedNanos();
  return selection;
}

core::QueryResult ShardedSearcher::ScanShard(
    size_t k, const fp::Fingerprint& query,
    const core::BlockSelection& selection, const core::DistortionModel& model,
    const core::QueryOptions& options) const {
  Stopwatch watch;
  core::QueryResult partial;
  shards_[k]->ScanSelection(query, selection, options.refinement,
                            options.radius, &model, &partial);
  partial.stats.refine_ns = watch.ElapsedNanos();
  shard_scan_us_[k]->Record(partial.stats.refine_ns * 1e-3);
  return partial;
}

core::QueryResult ShardedSearcher::StatShard(
    size_t k, const fp::Fingerprint& query, const core::DistortionModel& model,
    const core::QueryOptions& options) const {
  Stopwatch watch;
  core::QueryResult partial = shards_[k]->StatQuery(query, model, options);
  shard_scan_us_[k]->Record(watch.ElapsedMicros());
  return partial;
}

core::QueryResult ShardedSearcher::MergeShardResults(
    const core::BlockSelection* selection, uint64_t selection_ns,
    bool selection_cached, std::vector<core::QueryResult> partials) const {
  core::QueryResult result;
  if (selection != nullptr) {
    result.stats.selection_ns = selection_ns;
    result.stats.selection_cached = selection_cached;
    result.stats.blocks_selected = selection->num_blocks;
    // A cached hit ran no selection: re-reporting the stored selection's
    // nodes_visited would double-count selection work in # METRICS blocks.
    // blocks_selected / probability_mass stay — they describe the region
    // actually scanned, cached or not.
    result.stats.nodes_visited = selection_cached ? 0 : selection->nodes_visited;
    result.stats.probability_mass = selection->probability_mass;
  }
  for (core::QueryResult& partial : partials) {
    result.matches.insert(result.matches.end(),
                          std::make_move_iterator(partial.matches.begin()),
                          std::make_move_iterator(partial.matches.end()));
    // Summed across shards: CPU time, not wall time, under fan-out.
    result.stats.refine_ns += partial.stats.refine_ns;
    result.stats.ranges_scanned += partial.stats.ranges_scanned;
    result.stats.records_scanned += partial.stats.records_scanned;
    result.stats.descriptor_bytes_scanned +=
        partial.stats.descriptor_bytes_scanned;
    if (selection == nullptr) {
      result.stats.selection_ns += partial.stats.selection_ns;
      result.stats.blocks_selected += partial.stats.blocks_selected;
      result.stats.nodes_visited += partial.stats.nodes_visited;
      result.stats.probability_mass =
          std::max(result.stats.probability_mass,
                   partial.stats.probability_mass);
    }
  }
  g_queries->Increment();
  if (selection != nullptr) {
    // Without a shared selection the per-shard StatQuery calls already
    // published their own metrics; publishing the merge again would double
    // count the scan work.
    core::RecordQueryMetrics(core::QueryKind::kStatistical, result.stats,
                             result.matches.size());
  }
  return result;
}

core::QueryResult ShardedSearcher::StatisticalQuery(
    const fp::Fingerprint& query, const core::DistortionModel& model,
    const core::QueryOptions& options, SelectionCache* cache) const {
  S3VCD_TRACE_SPAN("service.sharded_query");
  uint64_t selection_ns = 0;
  bool cached = false;
  const auto selection =
      GetSelection(query, model, options, cache, &selection_ns, &cached);
  std::vector<core::QueryResult> partials;
  partials.reserve(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    partials.push_back(selection != nullptr
                           ? ScanShard(k, query, *selection, model, options)
                           : StatShard(k, query, model, options));
  }
  return MergeShardResults(selection.get(), selection_ns, cached,
                           std::move(partials));
}

core::QueryResult ShardedSearcher::RangeQuery(const fp::Fingerprint& query,
                                              double epsilon,
                                              int depth) const {
  S3VCD_TRACE_SPAN("service.sharded_range");
  std::vector<core::QueryResult> partials;
  partials.reserve(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    Stopwatch watch;
    partials.push_back(shards_[k]->RangeQuery(query, epsilon, depth));
    shard_scan_us_[k]->Record(watch.ElapsedMicros());
  }
  // Merged like the no-selection statistical fallback: the per-shard
  // queries already published their metrics, the merge only aggregates.
  return MergeShardResults(nullptr, 0, false, std::move(partials));
}

std::vector<core::QueryResult> ShardedSearcher::BatchStatisticalQuery(
    const std::vector<fp::Fingerprint>& queries,
    const core::DistortionModel& model, const core::QueryOptions& options,
    ThreadPool* pool, SelectionCache* cache, const CancelToken* cancel,
    size_t* executed) const {
  S3VCD_TRACE_SPAN("service.sharded_batch");
  const size_t n = queries.size();
  std::vector<core::QueryResult> results(n);
  size_t done = 0;
  if (pool == nullptr || n == 0) {
    for (size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->ShouldStop()) {
        break;
      }
      results[i] = StatisticalQuery(queries[i], model, options, cache);
      ++done;
    }
    if (executed != nullptr) {
      *executed = done;
    }
    return results;
  }

  const size_t num_shards = shards_.size();
  const bool has_selection = shards_[0]->selection_filter() != nullptr;
  std::vector<std::shared_ptr<const core::BlockSelection>> selections(n);
  std::vector<uint64_t> selection_ns(n, 0);
  // uint8_t, not bool: concurrent writers of distinct vector<bool>
  // elements would race on the shared word.
  std::vector<uint8_t> cached(n, 0);
  // Per-(query, shard) skip flags: a task that observes the cancel token
  // fired marks its slot instead of scanning. Written by pool workers,
  // read only after pool->Wait().
  std::vector<uint8_t> skipped(n * num_shards, 0);
  if (has_selection) {
    // Stage 1: block selections, one task per query (cache-aware). Each
    // pool worker reuses its own thread-local SelectionScratch, so a warm
    // batch allocates nothing in this stage.
    for (size_t i = 0; i < n; ++i) {
      pool->Submit([this, &queries, &model, &options, cache, &selections,
                    &selection_ns, &cached, cancel, i] {
        if (cancel != nullptr && cancel->ShouldStop()) {
          return;  // selections[i] stays null; stage 2 skips the query
        }
        bool hit = false;
        selections[i] = GetSelection(queries[i], model, options, cache,
                                     &selection_ns[i], &hit);
        cached[i] = hit ? 1 : 0;
      });
    }
    pool->Wait();
  }

  // Stage 2: one task per (query, shard) — the unit the throughput of the
  // service scales by: K shards turn one long scan into K shorter
  // independent ones, so small batches still fill the pool. Refinement
  // scans under the shared selection, or per-shard statistical queries on
  // backends without block structure.
  std::vector<std::vector<core::QueryResult>> partials(n);
  for (size_t i = 0; i < n; ++i) {
    partials[i].resize(num_shards);
    const bool selection_missing = has_selection && selections[i] == nullptr;
    for (size_t k = 0; k < num_shards; ++k) {
      if (selection_missing) {
        skipped[i * num_shards + k] = 1;
        continue;
      }
      pool->Submit([this, &queries, &model, &options, &selections, &partials,
                    &skipped, has_selection, cancel, num_shards, i, k] {
        if (cancel != nullptr && cancel->ShouldStop()) {
          skipped[i * num_shards + k] = 1;
          return;
        }
        partials[i][k] =
            has_selection
                ? ScanShard(k, queries[i], *selections[i], model, options)
                : StatShard(k, queries[i], model, options);
      });
    }
  }
  pool->Wait();

  for (size_t i = 0; i < n; ++i) {
    bool complete = !(has_selection && selections[i] == nullptr);
    for (size_t k = 0; complete && k < num_shards; ++k) {
      complete = skipped[i * num_shards + k] == 0;
    }
    if (!complete) {
      // A partially-scanned query would look like a complete result with
      // silently missing matches; return the default (empty) result and
      // leave it out of the executed count instead.
      results[i] = core::QueryResult();
      continue;
    }
    results[i] = MergeShardResults(selections[i].get(), selection_ns[i],
                                   cached[i] != 0, std::move(partials[i]));
    ++done;
  }
  if (executed != nullptr) {
    *executed = done;
  }
  return results;
}

}  // namespace s3vcd::service
