// The serve_1m workload: QueryService over 1M records in four Hilbert
// range shards, fed one batch per candidate key-frame by one dispatcher
// thread, with one harvester thread collecting completions (four threads
// with the two workers). No extraction or voting on the measured path.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "core/index.h"
#include "core/synthetic_db.h"
#include "e2e.h"
#include "inputs.h"
#include "service/query_service.h"
#include "service/sharded_searcher.h"
#include "util/logging.h"

namespace s3vcd::e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kRecords = 1000000;
constexpr int kClips = 32;
constexpr int kShards = 4;
constexpr int kWorkers = 2;
/// Closed-loop batches in flight while measuring capacity: two per worker.
constexpr size_t kInFlight = 4;
/// Open-loop rate of the measured phase, in key-frame batches per second,
/// frozen at about a quarter of the two-worker capacity of the host the
/// benchmark was defined on, so a change in speed shows as a change in
/// latency. Near saturation the tail follows the host's own speed drift
/// more than the code.
constexpr double kRate = 170;
/// Length of the stream whose key-frames are replayed.
constexpr double kSourceSeconds = 240;
/// Every replayed fingerprint is jittered by this many bytes per component
/// so no query repeats: a monitored stream never sends the same bytes
/// twice, and repeats would make the selection cache look free.
constexpr double kJitterSigma = 1.0;
/// One batch in this many is checked against an unsharded index.
constexpr uint64_t kOracleEvery = 64;
constexpr int kSetupRuns = 3;
/// Voting settings used to judge whether a copy could be found from the
/// batches the service returned.
constexpr double kTolerance = 3.0;
constexpr int kNsimThreshold = 8;

/// Everything answering queries. The service is declared last so that it
/// stops before the searcher it reads is destroyed.
struct System {
  std::unique_ptr<service::ShardedSearcher> sharded;
  std::unique_ptr<service::QueryService> service;
};

struct SourceKeyframe {
  std::vector<fp::LocalFingerprint> fps;  ///< stream time codes
  int segment = 0;
};

/// One harvested batch of an open-loop phase.
struct Completion {
  uint64_t seq = 0;
  uint64_t scheduled_ns = 0;  ///< on the NowNs() clock
  double lag_ms = 0;
  service::BatchTicket ticket;
};

/// Unbounded hand-off from the dispatcher to the harvester; the service's
/// admission bound limits what is outstanding.
class HandOff {
 public:
  void Push(Completion item) {
    std::lock_guard<std::mutex> lock(mutex_);
    items_.push_back(std::move(item));
    cv_.notify_one();
  }
  bool Pop(Completion* item) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) {
      return false;
    }
    *item = std::move(items_.front());
    items_.pop_front();
    return true;
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Completion> items_;
  bool closed_ = false;
};

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::vector<core::Match> Sorted(std::vector<core::Match> matches) {
  std::sort(matches.begin(), matches.end(),
            [](const core::Match& a, const core::Match& b) {
              return std::tie(a.id, a.time_code, a.distance, a.x, a.y) <
                     std::tie(b.id, b.time_code, b.distance, b.x, b.y);
            });
  return matches;
}

/// Shards are scanned one after another, so the sharded match order differs
/// from the unsharded one; the sets must be equal.
bool SameMatchSet(const std::vector<core::Match>& a,
                  const std::vector<core::Match>& b) {
  return SameMatches(Sorted(a), Sorted(b));
}

class ServeRun {
 public:
  explicit ServeRun(const RunOptions& options)
      : options_(options),
        catalogue_(MakeCatalogue(
            options.smoke ? 4 : kClips, 0,
            options.smoke ? kRecords / 50 : kRecords, options.seed)),
        plan_(PlanStream(kSourceSeconds * (options.smoke ? 0.1 : 1.0),
                         options.smoke ? 4 : kClips,
                         options.smoke ? 4 : kClips,
                         options.seed ^ 0x5e7eULL)),
        detector_options_(MonitorDetectorOptions(catalogue_.records.size())) {}

  const Catalogue& catalogue() const { return catalogue_; }
  const StreamPlan& plan() const { return plan_; }
  const std::vector<SourceKeyframe>& keyframes() const { return keyframes_; }
  const cbcd::DetectorOptions& detector_options() const {
    return detector_options_;
  }

  /// Renders and extracts the source stream; with `spans`, through the
  /// fingerprint layer's functions, checked against the extractor.
  void ExtractSource(SpanLog* spans, ExtractCounts* counts,
                     RunReport* report) {
    std::vector<std::vector<fp::LocalFingerprint>> fps(plan_.segments.size());
    ParallelFor(plan_.segments.size(), [&](size_t s) {
      const media::VideoSequence video =
          RenderSegment(plan_.segments[s], catalogue_);
      fps[s] = fp::FingerprintExtractor().Extract(video);
    });
    if (spans != nullptr) {
      for (size_t s = 0; s < plan_.segments.size(); ++s) {
        const media::VideoSequence video =
            RenderSegment(plan_.segments[s], catalogue_);
        report->Check(
            SameFingerprints(TracedExtract(fp::ExtractorOptions(), video,
                                           spans, s, counts),
                             fps[s]),
            "layered extraction differs from "
            "FingerprintExtractor::Extract on segment " +
                std::to_string(s));
      }
    }
    keyframes_.clear();
    for (size_t s = 0; s < plan_.segments.size(); ++s) {
      for (auto& keyframe : SplitKeyFrames(
               ShiftTimeCodes(std::move(fps[s]),
                              plan_.segments[s].start_frame))) {
        keyframes_.push_back({std::move(keyframe), static_cast<int>(s)});
      }
    }
    S3VCD_CHECK(!keyframes_.empty());
  }

  /// From the records in memory to the first answered batch: database
  /// build, shard split and service start.
  std::unique_ptr<System> Setup(double* seconds) const {
    const uint64_t start = NowNs();
    service::ShardedSearcherOptions shard_options;
    shard_options.num_shards = kShards;
    shard_options.policy = service::ShardingPolicy::kHilbertRange;
    shard_options.backend = "s3";
    auto sharded = service::ShardedSearcher::Build(BuildDatabase(catalogue_),
                                                   shard_options);
    S3VCD_CHECK_OK(sharded.status());
    auto system = std::make_unique<System>();
    system->sharded =
        std::make_unique<service::ShardedSearcher>(std::move(*sharded));
    service::QueryServiceOptions service_options;
    service_options.num_workers = kWorkers;
    service_options.threads_per_batch = 1;
    service_options.max_queue_depth = 64;
    service_options.query = detector_options_.query;
    system->service = std::make_unique<service::QueryService>(
        system->sharded.get(), &model_, service_options);
    auto first = system->service->Submit({catalogue_.records.front().descriptor});
    S3VCD_CHECK_OK(first.status());
    (*first)->Wait();
    *seconds = (NowNs() - start) * 1e-9;
    return system;
  }

  /// The queries of batch `seq`: its source key-frame, jittered.
  std::vector<fp::Fingerprint> Batch(uint64_t seq) const {
    const SourceKeyframe& kf = keyframes_[seq % keyframes_.size()];
    Rng rng(options_.seed * 0x9e3779b97f4a7c15ULL + seq);
    std::vector<fp::Fingerprint> queries;
    for (const fp::LocalFingerprint& lf : kf.fps) {
      queries.push_back(core::DistortFingerprint(lf.descriptor, kJitterSigma, &rng));
    }
    return queries;
  }

  /// Queries of `result` with a match of the copied clip at the copy's
  /// offset: the evidence the voting stage would count.
  int Evidence(uint64_t seq, const service::BatchResult& result) const {
    const SourceKeyframe& kf = keyframes_[seq % keyframes_.size()];
    const Segment& segment = plan_.segments[kf.segment];
    if (segment.clip < 0) {
      return 0;
    }
    int evidence = 0;
    for (size_t i = 0; i < result.results.size(); ++i) {
      for (const core::Match& m : result.results[i].matches) {
        const double offset = static_cast<double>(kf.fps[i].time_code) -
                              static_cast<double>(m.time_code);
        if (m.id == static_cast<uint32_t>(segment.clip) &&
            std::abs(offset - segment.start_frame) <= kTolerance) {
          ++evidence;
          break;
        }
      }
    }
    return evidence;
  }

  const core::DistortionModel& model() const { return model_; }

 private:
  const RunOptions options_;
  const Catalogue catalogue_;
  const StreamPlan plan_;
  const cbcd::DetectorOptions detector_options_;
  const core::GaussianDistortionModel model_{kSigma};
  std::vector<SourceKeyframe> keyframes_;
};

/// The phases of one pass over a running service.
struct PassResult {
  uint64_t failed = 0;
  double capacity_bps = 0;        ///< closed-loop batches per second
  std::vector<double> latency_ms;  ///< measured open-loop phase
  /// Evidence per (copy segment, replay cycle) and key-frames seen of it.
  std::map<std::pair<int, uint64_t>, std::pair<int, int>> evidence;
  /// Every kOracleEvery-th batch: its queries and what the service said.
  std::vector<std::pair<std::vector<fp::Fingerprint>, service::BatchResult>>
      oracle;
  ServiceCounts service;
  SearchCounts search;
  double select_s = 0;
  double refine_s = 0;
};

class ServePass {
 public:
  ServePass(const ServeRun& run, service::QueryService* service,
            SpanLog* spans)
      : run_(run), service_(service), spans_(spans) {}

  PassResult Run(const RunOptions& options) {
    const double seconds = options.seconds;
    OpenLoop(0.1 * seconds, /*measured=*/false, options.seed ^ 0xa1ULL);
    OpenLoop(0.6 * seconds, /*measured=*/true, options.seed ^ 0xa2ULL);
    ClosedLoop(0.3 * seconds);
    out_.failed += out_.service.rejects;
    return std::move(out_);
  }

 private:
  /// Poisson arrivals at kRate for `seconds`; each batch is timed from its
  /// scheduled send time, so the generator's lateness counts.
  void OpenLoop(double seconds, bool measured, uint64_t seed) {
    const uint64_t hits_before = Hits();
    const uint64_t misses_before = Misses();
    HandOff handoff;
    std::thread harvester([&] {
      Completion c;
      while (handoff.Pop(&c)) {
        const service::BatchResult& result = c.ticket->Wait();
        Harvest(c.seq, result, measured, c.scheduled_ns, c.lag_ms);
      }
    });
    Rng arrivals(seed);
    const Clock::time_point start = Clock::now();
    double at_s = 0;
    for (;;) {
      at_s += -std::log(1.0 - arrivals.Uniform(0, 1)) / kRate;
      if (at_s >= seconds) {
        break;
      }
      const uint64_t seq = next_seq_++;
      std::vector<fp::Fingerprint> queries = run_.Batch(seq);
      const Clock::time_point scheduled =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(at_s));
      std::this_thread::sleep_until(scheduled);
      const uint64_t sent_ns = NowNs();
      const double lag_ms = MillisBetween(scheduled, Clock::now());
      const uint64_t scheduled_ns =
          sent_ns - std::min(sent_ns, static_cast<uint64_t>(lag_ms * 1e6));
      Submit(seq, std::move(queries), [&](service::BatchTicket ticket) {
        handoff.Push({seq, scheduled_ns, lag_ms, std::move(ticket)});
      });
    }
    handoff.Close();
    harvester.join();
    if (measured) {
      out_.service.cache_hits += Hits() - hits_before;
      out_.service.cache_misses += Misses() - misses_before;
    }
  }

  /// kInFlight batches outstanding at all times: the service's capacity.
  void ClosedLoop(double seconds) {
    std::deque<std::pair<uint64_t, service::BatchTicket>> in_flight;
    const auto submit = [&] {
      const uint64_t seq = next_seq_++;
      Submit(seq, run_.Batch(seq), [&](service::BatchTicket ticket) {
        in_flight.emplace_back(seq, std::move(ticket));
      });
    };
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    uint64_t completed = 0;
    Clock::time_point now = start;
    while (now < end) {
      while (in_flight.size() < kInFlight) {
        submit();
      }
      Check(in_flight.front().first, in_flight.front().second->Wait());
      in_flight.pop_front();
      ++completed;
      now = Clock::now();
    }
    out_.capacity_bps =
        completed / std::chrono::duration<double>(now - start).count();
    for (auto& [seq, ticket] : in_flight) {
      Check(seq, ticket->Wait());
    }
  }

  /// Dispatcher side. A rejected batch counts as failed.
  template <typename OnTicket>
  void Submit(uint64_t seq, std::vector<fp::Fingerprint> queries,
              OnTicket on_ticket) {
    ++out_.service.batches;
    if (seq % kOracleEvery == 0) {
      std::lock_guard<std::mutex> lock(oracle_mutex_);
      pending_oracle_[seq] = queries;
    }
    auto ticket = service_->Submit(std::move(queries));
    if (!ticket.ok()) {
      ++out_.service.rejects;
      return;
    }
    on_ticket(std::move(*ticket));
  }

  /// Completion side: counts a failed batch and keeps every
  /// kOracleEvery-th result.
  void Check(uint64_t seq, const service::BatchResult& result) {
    if (!result.status.ok()) {
      ++out_.failed;
    }
    std::lock_guard<std::mutex> lock(oracle_mutex_);
    const auto it = pending_oracle_.find(seq);
    if (it != pending_oracle_.end()) {
      out_.oracle.emplace_back(std::move(it->second), result);
      pending_oracle_.erase(it);
    }
  }

  void Harvest(uint64_t seq, const service::BatchResult& result, bool measured,
               uint64_t scheduled_ns, double lag_ms) {
    Check(seq, result);
    const SourceKeyframe& kf = run_.keyframes()[seq % run_.keyframes().size()];
    if (run_.plan().segments[kf.segment].clip >= 0) {
      auto& [evidence, seen] =
          out_.evidence[{kf.segment, seq / run_.keyframes().size()}];
      evidence += run_.Evidence(seq, result);
      ++seen;
    }
    if (!measured) {
      return;
    }
    const double latency_ms = lag_ms + result.queue_wait_ms + result.execute_ms;
    out_.latency_ms.push_back(latency_ms);
    out_.service.lag_s += lag_ms * 1e-3;
    out_.service.queue_s += result.queue_wait_ms * 1e-3;
    out_.service.execute_s += result.execute_ms * 1e-3;
    out_.service.latency_s += latency_ms * 1e-3;
    out_.select_s += result.selection_ns * 1e-9;
    out_.refine_s += result.refine_ns * 1e-9;
    for (const core::QueryResult& r : result.results) {
      ++out_.search.queries;
      out_.search.nodes += r.stats.nodes_visited;
      out_.search.blocks += r.stats.blocks_selected;
      out_.search.mass += r.stats.probability_mass;
      out_.search.records += r.stats.records_scanned;
      out_.search.matches += r.matches.size();
    }
    if (spans_ != nullptr) {
      // The service reports its stage times; lay them end to end under one
      // batch span so self time is attributed per layer.
      const uint64_t start = scheduled_ns;
      const auto ns = [](double ms) { return static_cast<uint64_t>(ms * 1e6); };
      const size_t root =
          spans_->Add("serve.batch", seq, SpanLog::kNone, start,
                      start + ns(latency_ms));
      uint64_t t = start;
      spans_->Add("service.lag", seq, root, t, t + ns(lag_ms));
      t += ns(lag_ms);
      spans_->Add("service.queue", seq, root, t, t + ns(result.queue_wait_ms));
      t += ns(result.queue_wait_ms);
      const size_t execute = spans_->Add("service.execute", seq, root, t,
                                         t + ns(result.execute_ms));
      spans_->Add(kSelectSpan, seq, execute, t, t + result.selection_ns);
      t += result.selection_ns;
      spans_->Add(kRefineSpan, seq, execute, t, t + result.refine_ns);
    }
  }

  uint64_t Hits() const { return service_->cache()->hits(); }
  uint64_t Misses() const { return service_->cache()->misses(); }

  const ServeRun& run_;
  service::QueryService* service_;
  SpanLog* spans_;
  uint64_t next_seq_ = 0;
  std::mutex oracle_mutex_;
  std::map<uint64_t, std::vector<fp::Fingerprint>> pending_oracle_;
  PassResult out_;
};

/// Found copies over complete replays of a copy in the open-loop phases.
double EvidenceRecall(const ServeRun& run, const PassResult& pass) {
  std::map<int, int> keyframes_of_segment;
  for (const SourceKeyframe& kf : run.keyframes()) {
    ++keyframes_of_segment[kf.segment];
  }
  int complete = 0;
  int found = 0;
  for (const auto& [key, value] : pass.evidence) {
    if (value.second == keyframes_of_segment[key.first]) {
      ++complete;
      found += value.first >= kNsimThreshold ? 1 : 0;
    }
  }
  return complete == 0 ? 0 : static_cast<double>(found) / complete;
}

}  // namespace

RunReport RunServeWorkload(const RunOptions& options) {
  RunReport report;
  ServeRun run(options);
  SpanLog spans;
  ExtractCounts extract;
  run.ExtractSource(options.traced ? &spans : nullptr, &extract, &report);
  const double seconds_per_keyframe =
      run.plan().seconds() / static_cast<double>(run.keyframes().size());
  std::printf("catalogue: %zu records; source stream: %.1f s, %zu key-frames, "
              "%d copies; depth %d; rate %.0f batches/s\n",
              run.catalogue().records.size(), run.plan().seconds(),
              run.keyframes().size(), run.plan().copies(),
              run.detector_options().query.filter.depth, kRate);

  std::unique_ptr<System> system;
  const double setup_s = MedianSetupSeconds(kSetupRuns, [&] {
    system.reset();
    double seconds = 0;
    system = run.Setup(&seconds);
    return seconds;
  });

  PassResult pass = ServePass(run, system->service.get(), nullptr).Run(options);
  report.attempted = pass.service.batches;
  report.failed = pass.failed;
  report.AddEndToEnd("setup_s", setup_s, "s");
  report.AddEndToEnd("rtf", pass.capacity_bps * seconds_per_keyframe, "x");
  report.AddEndToEnd("latency_p50_ms", Median(pass.latency_ms), "ms");
  report.AddEndToEnd("recall", EvidenceRecall(run, pass), "fraction");
  report.AddEndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  double tail_p = 0;
  const double tail_ms = TailLatency(pass.latency_ms, &tail_p);
  std::printf("untraced: %llu batches, capacity %.1f batches/s, %zu measured, "
              "latency p%.4g %.3f ms, p99 %.3f ms, %llu failed\n",
              static_cast<unsigned long long>(pass.service.batches),
              pass.capacity_bps, pass.latency_ms.size(), tail_p * 100,
              tail_ms, Percentile(pass.latency_ms, 0.99),
              static_cast<unsigned long long>(pass.failed));

  // The traced pass gets a system of its own, so it starts from the same
  // cold cache as the untraced one.
  PassResult traced;
  if (options.traced) {
    system.reset();
    double ignored = 0;
    system = run.Setup(&ignored);
    traced = ServePass(run, system->service.get(), &spans).Run(options);
    report.attempted += traced.service.batches;
    report.failed += traced.failed;
  }
  system.reset();

  // Sharding, caching and queueing must not change a single match.
  const core::S3Index unsharded(BuildDatabase(run.catalogue()));
  for (const PassResult* p : {&pass, &traced}) {
    for (const auto& [queries, result] : p->oracle) {
      bool same = result.status.ok() && result.results.size() == queries.size();
      for (size_t i = 0; same && i < queries.size(); ++i) {
        same = SameMatchSet(
            result.results[i].matches,
            unsharded.StatQuery(queries[i], run.model(),
                                run.detector_options().query)
                .matches);
      }
      report.Check(same, "a sharded service batch differs from the unsharded "
                         "s3 index");
    }
  }
  report.Check(!pass.oracle.empty(), "no batch was checked");
  if (!options.traced) {
    return report;
  }

  const std::map<std::string, double> self = spans.SelfSeconds();
  const double wall = traced.service.latency_s;
  report.AddLayer("trace.overhead_frac",
                  1.0 - traced.capacity_bps / pass.capacity_bps, "fraction");
  report.AddLayer("trace.coverage",
                  (traced.service.lag_s + traced.service.queue_s +
                   traced.service.execute_s) / wall,
                  "fraction");
  AddFingerprintLayer(self, extract, 0, &report);
  AddSearchLayer(traced.search, run.detector_options().query.filter.alpha,
                 traced.select_s, traced.refine_s, wall, &report);
  AddVoteLayer(VoteCounts{}, 0, wall, 0, &report);
  AddServiceLayer(traced.service, &report);
  AddStoreLayer(StoreCounts{}, wall, &report);
  if (!options.trace_out.empty() && !spans.WriteChromeTrace(options.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
  }
  return report;
}

}  // namespace s3vcd::e2e
