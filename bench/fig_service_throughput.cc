// Throughput figure for the sharded batch query service (src/service/):
// sweeps shard count x batch size through the full QueryService, decomposes
// per-query scan time into per-shard tasks (the scaling signal: the ratio
// sum/max of per-shard scan times is the speedup sharding makes available
// to the per-(query, shard) scan tasks of ShardedSearcher::RunBatch — a
// wall-clock-independent measure, since CI boxes may expose one core),
// then sweeps queue depth under a deliberately overloaded producer to
// demonstrate the admission-control contract (bounded queue,
// reject-with-kUnavailable). The # METRICS block emitted at exit carries
// the cumulative service.* counters, including service.admission_rejects.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/synthetic_db.h"
#include "service/query_service.h"
#include "service/sharded_searcher.h"
#include "util/table.h"
#include "util/timer.h"

namespace s3vcd::bench {
namespace {

int Main() {
  PrintHeader("fig_service_throughput",
              "sharded batch service: throughput and per-shard scan "
              "decomposition vs shards/batch, admission rejects vs queue "
              "depth");
  const uint64_t kDbSize = Scaled(150000);
  const double kSigma = 14.0;
  Corpus corpus = BuildCorpus(6, kDbSize, 9300);
  const core::GaussianDistortionModel model(kSigma);
  Rng rng(477);

  // A fixed pool of distorted self-queries. Sweeps draw from it
  // round-robin (restarting per configuration), so once a configuration
  // cycles through the pool the selection cache sees repeats.
  std::vector<fp::Fingerprint> pool;
  for (int i = 0; i < 32; ++i) {
    const size_t idx = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(corpus.db().size()) - 1));
    pool.push_back(core::DistortFingerprint(
        corpus.db().record(idx).descriptor, kSigma, &rng));
  }
  size_t next_query = 0;
  auto make_batch = [&](size_t batch_size) {
    std::vector<fp::Fingerprint> batch;
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      batch.push_back(pool[next_query++ % pool.size()]);
    }
    return batch;
  };

  core::QueryOptions query_options;
  query_options.filter.alpha = 0.8;
  query_options.filter.depth = 12;

  service::QueryServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.threads_per_batch = 4;
  service_options.query = query_options;

  // --- Sweep 1: shard count x batch size through the QueryService, queue
  // never overflows. Wall-clock throughput scales with shards when the
  // host grants enough cores to the worker pools. ---
  const size_t kBatchesPerConfig = static_cast<size_t>(Scaled(12));
  Table scaling({"shards", "batch", "queries", "wall_ms", "queries_per_sec",
                 "cache_hit_rate", "avg_execute_ms"});
  for (int shards : {1, 2, 4, 8}) {
    service::ShardedSearcherOptions shard_options;
    shard_options.num_shards = shards;
    shard_options.policy = service::ShardingPolicy::kRefIdHash;
    auto searcher = service::ShardedSearcher::Build(CopyDatabase(corpus),
                                                    shard_options);
    if (!searcher.ok()) {
      std::printf("FATAL: %s\n", searcher.status().ToString().c_str());
      return 1;
    }
    for (size_t batch_size : {size_t{4}, size_t{32}}) {
      service_options.max_queue_depth = 64;
      service::QueryService service(&*searcher, &model, service_options);
      next_query = 0;
      std::vector<service::BatchTicket> tickets;
      Stopwatch wall;
      for (size_t b = 0; b < kBatchesPerConfig; ++b) {
        auto ticket = service.Submit(make_batch(batch_size));
        if (!ticket.ok()) {
          std::printf("FATAL: %s\n", ticket.status().ToString().c_str());
          return 1;
        }
        tickets.push_back(*ticket);
      }
      size_t queries = 0;
      double execute_ms = 0;
      for (const service::BatchTicket& ticket : tickets) {
        const service::BatchResult& result = ticket->Wait();
        queries += result.queries_executed;
        execute_ms += result.execute_ms;
      }
      const double wall_ms = wall.ElapsedSeconds() * 1e3;
      scaling.AddRow()
          .Add(static_cast<int64_t>(shards))
          .Add(static_cast<uint64_t>(batch_size))
          .Add(static_cast<uint64_t>(queries))
          .Add(wall_ms, 4)
          .Add(static_cast<uint64_t>(queries / (wall_ms / 1e3)))
          .Add(service.cache()->HitRate(), 3)
          .Add(execute_ms / static_cast<double>(tickets.size()), 3);
    }
  }
  scaling.Print("service_shard_scaling");

  // --- Sweep 2: per-shard scan decomposition, shards x policy. For each
  // query: one shared selection (the invariant of docs/query_service.md),
  // then each shard's refinement scan timed separately. sum(t_k) is the
  // serial cost, max(t_k) the critical path under per-shard fan-out;
  // their ratio is the parallel speedup shard count makes available. ---
  Table decomposition({"shards", "policy", "scan_cpu_ms_per_q",
                       "scan_critical_ms_per_q", "parallel_speedup"});
  for (const auto policy : {service::ShardingPolicy::kHilbertRange,
                            service::ShardingPolicy::kRefIdHash}) {
    for (int shards : {1, 2, 4, 8}) {
      service::ShardedSearcherOptions shard_options;
      shard_options.num_shards = shards;
      shard_options.policy = policy;
      auto searcher = service::ShardedSearcher::Build(CopyDatabase(corpus),
                                                      shard_options);
      if (!searcher.ok()) {
        std::printf("FATAL: %s\n", searcher.status().ToString().c_str());
        return 1;
      }
      // ShardedSearcher::Build defaults to the block-structured "s3"
      // backend, so the shared-selection decomposition always applies here.
      const core::BlockFilter& filter = *searcher->shard(0).selection_filter();
      double cpu_seconds = 0;
      double critical_seconds = 0;
      for (const fp::Fingerprint& query : pool) {
        const core::BlockSelection selection =
            filter.SelectStatistical(query, model, query_options.filter);
        double worst = 0;
        for (int k = 0; k < shards; ++k) {
          Stopwatch scan;
          core::QueryResult partial;
          searcher->shard(k).ScanSelection(query, selection,
                                           query_options.refinement,
                                           query_options.radius, &model,
                                           &partial);
          const double t = scan.ElapsedSeconds();
          cpu_seconds += t;
          worst = std::max(worst, t);
        }
        critical_seconds += worst;
      }
      const double per_q = 1e3 / static_cast<double>(pool.size());
      decomposition.AddRow()
          .Add(static_cast<int64_t>(shards))
          .Add(policy == service::ShardingPolicy::kHilbertRange ? "range"
                                                                : "hash")
          .Add(cpu_seconds * per_q, 4)
          .Add(critical_seconds * per_q, 4)
          .Add(cpu_seconds / critical_seconds, 3);
    }
  }
  decomposition.Print("service_scan_decomposition");

  // --- Sweep 3: queue depth under overload. Workers start paused so the
  // producer outruns them by construction: exactly `depth` submissions are
  // admitted and the rest bounce with kUnavailable. Resume then drains. ---
  service::ShardedSearcherOptions shard_options;
  shard_options.num_shards = 4;
  auto searcher = service::ShardedSearcher::Build(CopyDatabase(corpus),
                                                  shard_options);
  if (!searcher.ok()) {
    std::printf("FATAL: %s\n", searcher.status().ToString().c_str());
    return 1;
  }
  Table admission({"queue_depth", "offered", "accepted", "rejected",
                   "drain_ms"});
  for (size_t depth : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    service_options.max_queue_depth = depth;
    service_options.start_paused = true;
    service::QueryService service(&*searcher, &model, service_options);
    const size_t offered = 2 * depth + 4;
    size_t rejected = 0;
    std::vector<service::BatchTicket> tickets;
    for (size_t b = 0; b < offered; ++b) {
      auto ticket = service.Submit(make_batch(16));
      if (ticket.ok()) {
        tickets.push_back(*ticket);
      } else if (ticket.status().code() == StatusCode::kUnavailable) {
        ++rejected;  // backpressure: a real producer would retry later
      } else {
        std::printf("FATAL: %s\n", ticket.status().ToString().c_str());
        return 1;
      }
    }
    Stopwatch drain;
    service.Resume();
    for (const service::BatchTicket& ticket : tickets) {
      ticket->Wait();
    }
    admission.AddRow()
        .Add(static_cast<uint64_t>(depth))
        .Add(static_cast<uint64_t>(offered))
        .Add(static_cast<uint64_t>(tickets.size()))
        .Add(static_cast<uint64_t>(rejected))
        .Add(drain.ElapsedSeconds() * 1e3, 4);
    service_options.start_paused = false;
  }
  admission.Print("service_admission_control");

  std::printf(
      "takeaway: hash sharding balances scan work so sum/max -> K (the\n"
      "speedup the per-shard fan-out can realize given cores); range\n"
      "sharding concentrates each query on few shards. The bounded queue\n"
      "converts overload into kUnavailable rejects, not unbounded latency\n");
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main() { return s3vcd::bench::Main(); }
