// Latency figure for the query service under a calibrated load ramp
// (src/service/loadgen.*): a closed-loop run first measures sustainable
// capacity, then open-loop phases at 0.5x/1x/2x/4x of that rate drive the
// service through its overload knee. Per phase we report offered vs
// goodput, reject and deadline-miss rates, exact e2e percentiles
// (coordinated-omission safe: latency is measured from the *scheduled*
// arrival) and the mean per-stage breakdown (queue / selection / refine /
// other). The expected shape: below the knee goodput tracks offered and
// p99 stays near the service time; past it goodput flattens, rejects
// absorb the excess and queue wait dominates the latency of what is
// admitted. The # METRICS block at exit carries the cumulative
// service.stage_* histograms behind the same data.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/synthetic_db.h"
#include "service/loadgen.h"
#include "service/query_service.h"
#include "service/sharded_searcher.h"
#include "util/table.h"

namespace s3vcd::bench {
namespace {

int Main() {
  PrintHeader("fig_service_latency",
              "query service latency under a calibrated open-loop ramp: "
              "offered vs goodput, e2e percentiles and per-stage "
              "breakdown across the overload knee");
  const uint64_t kDbSize = Scaled(150000);
  const double kSigma = 14.0;
  Corpus corpus = BuildCorpus(6, kDbSize, 9301);
  const core::GaussianDistortionModel model(kSigma);
  Rng rng(478);

  std::vector<fp::Fingerprint> pool;
  for (int i = 0; i < 128; ++i) {
    const size_t idx = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(corpus.db().size()) - 1));
    pool.push_back(core::DistortFingerprint(
        corpus.db().record(idx).descriptor, kSigma, &rng));
  }

  service::ShardedSearcherOptions shard_options;
  shard_options.num_shards = 4;
  shard_options.policy = service::ShardingPolicy::kHilbertRange;
  auto searcher = service::ShardedSearcher::Build(CopyDatabase(corpus),
                                                  shard_options);
  if (!searcher.ok()) {
    std::printf("FATAL: %s\n", searcher.status().ToString().c_str());
    return 1;
  }

  service::QueryServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.threads_per_batch = 1;
  service_options.max_queue_depth = 32;
  service_options.query.filter.alpha = 0.8;
  service_options.query.filter.depth = 12;
  service_options.slow_batch_threshold_ms = 0;  // adaptive rolling p99
  service::QueryService service(&*searcher, &model, service_options);

  service::LoadGenOptions load;
  load.mode = service::LoadMode::kOpenLoop;
  load.base_qps = 0;  // calibrate from closed-loop goodput
  load.base_clients = 4;
  load.ramp = {0.5, 1.0, 2.0, 4.0};
  // Phase length scales with S3VCD_SCALE so CI stays fast while a full
  // run integrates long enough for stable p99.9.
  load.phase_seconds = 0.25 * static_cast<double>(Scaled(8));
  load.calibrate_seconds = 0.25 * static_cast<double>(Scaled(4));
  load.mix.stat_single = 0.6;
  load.mix.range_single = 0.2;
  load.mix.stat_batch = 0.2;
  load.batch_size = 8;
  load.seed = 478;

  const service::LoadGenReport report =
      service::RunLoadGen(service, pool, model, load);
  service.Shutdown();

  Table ramp({"mult", "target_qps", "offered_qps", "goodput_qps",
              "reject_rate", "p50_ms", "p95_ms", "p99_ms", "p999_ms"});
  Table stages({"mult", "queue_ms", "execute_ms", "selection_ms",
                "refine_ms", "other_ms"});
  for (const service::PhaseReport& p : report.phases) {
    if (p.calibration) {
      std::printf("calibration: %.1f batches/s goodput with %d clients "
                  "(p99 %.3f ms)\n",
                  p.goodput_qps, p.clients, p.e2e.p99_ms);
      continue;
    }
    ramp.AddRow()
        .Add(p.multiplier, 2)
        .Add(p.target_qps, 4)
        .Add(p.offered_qps, 4)
        .Add(p.goodput_qps, 4)
        .Add(p.reject_rate, 3)
        .Add(p.e2e.p50_ms, 4)
        .Add(p.e2e.p95_ms, 4)
        .Add(p.e2e.p99_ms, 4)
        .Add(p.e2e.p999_ms, 4);
    stages.AddRow()
        .Add(p.multiplier, 2)
        .Add(p.stages.queue_ms, 4)
        .Add(p.stages.execute_ms, 4)
        .Add(p.stages.selection_ms, 4)
        .Add(p.stages.refine_ms, 4)
        .Add(p.stages.other_ms, 4);
  }
  ramp.Print("service_latency_ramp");
  stages.Print("service_stage_breakdown");

  const service::SlowBatchLog* slow_log = service.slow_log();
  std::printf("slow-batch log: %llu exemplars captured (adaptive p99 "
              "threshold now %.3f ms)\n",
              static_cast<unsigned long long>(
                  slow_log != nullptr ? slow_log->captured() : 0),
              slow_log != nullptr ? slow_log->CurrentThresholdMs() : 0.0);
  std::printf(
      "takeaway: goodput tracks offered load up to the calibrated rate,\n"
      "then flattens at the knee while rejects absorb the excess; queue\n"
      "wait, not execute, is what inflates tail latency past saturation\n");
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main() { return s3vcd::bench::Main(); }
