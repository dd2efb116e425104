// The monitored-stream workloads: monitor_400k, monitor_20k and
// ingest_monitor. One thread, closed loop: the next key-frame is pushed
// when the previous push returns.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>

#include "cbcd/voting.h"
#include "core/index.h"
#include "e2e.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "store/segment_searcher.h"
#include "util/logging.h"

namespace s3vcd::e2e {

namespace {

struct MonitorSpec {
  const char* name;
  /// Catalogue records when the stream starts.
  uint64_t records;
  /// Indexed reference clips, and clips inserted while the stream runs.
  int clips;
  int inserted_clips;
  /// Stream seconds per --seconds, calibrated so the measured part lasts
  /// about --seconds on the host the benchmark was defined on.
  double stream_per_second;
  bool ingest;
};

// monitor_400k is the paper's Section V-D setup, where voting dominates;
// at 20k records the index fits in cache and extraction and search weigh
// as much as voting; ingest_monitor interleaves writes with the reads of
// the 400k pipeline (its depth is that of 400k records, the size the store
// grows to).
constexpr MonitorSpec kSpecs[] = {
    {"monitor_400k", 400000, 32, 0, 40.0, false},
    {"monitor_20k", 20000, 16, 0, 150.0, false},
    {"ingest_monitor", 200000, 32, 8, 35.0, true},
};

constexpr size_t kRenderChunk = 8;  // segments rendered per parallel batch
constexpr int kSetupRuns = 3;
constexpr double kOffsetTolerance = 4.0;  // frames, for a correct report

/// A detection with the ordinal of the key-frame whose push returned it
/// (-1 for the final flush).
struct Report {
  cbcd::Detection detection;
  int64_t keyframe = -1;

  bool operator==(const Report& o) const {
    return detection.id == o.detection.id &&
           detection.offset == o.detection.offset &&
           detection.nsim == o.detection.nsim &&
           detection.cost == o.detection.cost && keyframe == o.keyframe;
  }
};

struct PassResult {
  double busy_s = 0;  ///< extraction, ingest and monitoring
  double stream_s = 0;
  uint64_t keyframes = 0;
  std::vector<double> window_ms;  ///< latency of window-completing pushes
  std::vector<Report> reports;
  uint64_t insert_failures = 0;
  ExtractCounts extract;
  SearchCounts search;
  VoteCounts vote;
  StoreCounts store;
};

/// StreamMonitor rebuilt from the layers' public functions: block
/// selection, refinement scan and ComputeVotes over a window buffered
/// exactly as StreamMonitor buffers it, with a span around each call.
class LayeredMonitor {
 public:
  LayeredMonitor(const core::Searcher* searcher,
                 const core::DistortionModel* model,
                 const cbcd::DetectorOptions& options, SpanLog* spans,
                 SearchCounts* search, VoteCounts* vote)
      : searcher_(searcher),
        model_(model),
        options_(options),
        window_(MonitorWindowOptions()),
        spans_(spans),
        search_(search),
        vote_(vote),
        cost_evals_(obs::MetricsRegistry::Global().GetCounter(
            "cbcd.tukey_cost_evals")) {}

  std::vector<cbcd::Detection> Push(
      const std::vector<fp::LocalFingerprint>& keyframe, uint64_t id) {
    for (const fp::LocalFingerprint& lf : keyframe) {
      buffer_.push_back(Search(lf, id));
    }
    evaluated_ = ++keyframes_in_window_ >= window_.window_keyframes;
    if (!evaluated_) {
      return {};
    }
    std::vector<cbcd::Detection> detections = Evaluate(id);
    int dropped = 0;
    while (!buffer_.empty() &&
           dropped < window_.window_keyframes - window_.window_overlap) {
      const uint32_t tc = buffer_.front().candidate_time_code;
      while (!buffer_.empty() && buffer_.front().candidate_time_code == tc) {
        buffer_.pop_front();
      }
      ++dropped;
    }
    keyframes_in_window_ = window_.window_overlap;
    return detections;
  }

  std::vector<cbcd::Detection> Flush(uint64_t id) {
    if (buffer_.empty()) {
      return {};
    }
    std::vector<cbcd::Detection> detections = Evaluate(id);
    buffer_.clear();
    keyframes_in_window_ = 0;
    return detections;
  }

  /// Whether the last Push evaluated a window.
  bool evaluated() const { return evaluated_; }

  /// Whether the buffered results of the last pushed key-frame equal what
  /// Searcher::StatQuery returns for the same fingerprints now.
  bool LastKeyFrameMatchesStatQuery(
      const std::vector<fp::LocalFingerprint>& keyframe) const {
    const size_t first = buffer_.size() - keyframe.size();
    for (size_t i = 0; i < keyframe.size(); ++i) {
      const core::QueryResult expected =
          searcher_->StatQuery(keyframe[i].descriptor, *model_, options_.query);
      if (!SameMatches(buffer_[first + i].matches, expected.matches)) {
        return false;
      }
    }
    return true;
  }

 private:
  cbcd::CandidateEntry Search(const fp::LocalFingerprint& lf, uint64_t id) {
    cbcd::CandidateEntry entry;
    entry.candidate_time_code = lf.time_code;
    entry.x = lf.x;
    entry.y = lf.y;
    core::BlockSelection selection;
    {
      ScopedSpan span(spans_, kSelectSpan, id);
      selection = searcher_->selection_filter()->SelectStatistical(
          lf.descriptor, *model_, options_.query.filter,
          &core::ThreadLocalSelectionScratch());
    }
    core::QueryResult result;
    {
      ScopedSpan span(spans_, kRefineSpan, id);
      searcher_->ScanSelection(lf.descriptor, selection,
                               options_.query.refinement,
                               options_.query.radius, model_, &result);
    }
    ++search_->queries;
    search_->nodes += selection.nodes_visited;
    search_->blocks += selection.num_blocks;
    search_->mass += selection.probability_mass;
    search_->records += result.stats.records_scanned;
    search_->matches += result.matches.size();
    entry.matches = std::move(result.matches);
    return entry;
  }

  std::vector<cbcd::Detection> Evaluate(uint64_t id) {
    std::vector<cbcd::Vote> votes;
    {
      ScopedSpan span(spans_, kVoteSpan, id);
      const uint64_t evals_before = cost_evals_->Value();
      const std::vector<cbcd::CandidateEntry> window(buffer_.begin(),
                                                     buffer_.end());
      votes = cbcd::ComputeVotes(window, options_.vote);
      vote_->cost_evals += cost_evals_->Value() - evals_before;
    }
    ++vote_->windows;
    for (const cbcd::CandidateEntry& entry : buffer_) {
      vote_->matches += entry.matches.size();
    }
    vote_->ids += votes.size();
    std::vector<cbcd::Detection> detections;
    for (const cbcd::Vote& vote : votes) {
      if (vote.nsim >= options_.nsim_threshold) {
        detections.push_back({vote.id, vote.offset, vote.nsim, vote.cost});
      }
    }
    vote_->detections += detections.size();
    return detections;
  }

  const core::Searcher* searcher_;
  const core::DistortionModel* model_;
  const cbcd::DetectorOptions options_;
  const cbcd::StreamMonitor::Options window_;
  SpanLog* spans_;
  SearchCounts* search_;
  VoteCounts* vote_;
  obs::Counter* cost_evals_;
  std::deque<cbcd::CandidateEntry> buffer_;
  int keyframes_in_window_ = 0;
  bool evaluated_ = false;
};

class MonitorRun {
 public:
  MonitorRun(const MonitorSpec& spec, const RunOptions& options)
      : spec_(spec),
        options_(options),
        clips_(options.smoke ? 4 : spec.clips),
        inserted_clips_(spec.inserted_clips == 0 ? 0
                        : options.smoke          ? 2
                                                 : spec.inserted_clips),
        inserts_per_keyframe_(options.smoke ? 32 : 256),
        compact_every_(options.smoke ? 2048 : 131072),
        spill_threshold_(options.smoke ? 1024 : 64 * 1024),
        catalogue_(MakeCatalogue(clips_, inserted_clips_,
                                 options.smoke ? spec.records / 50
                                               : spec.records,
                                 options.seed)),
        plan_(PlanStream(options.seconds * spec.stream_per_second,
                         clips_ + inserted_clips_, clips_,
                         options.seed ^ 0x5151ULL)),
        // The store grows to about twice its base size while the stream
        // runs; size the partition for that.
        detector_options_(MonitorDetectorOptions(
            spec.ingest ? 2 * catalogue_.records.size()
                        : catalogue_.records.size())) {}

  ~MonitorRun() {
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }

  const Catalogue& catalogue() const { return catalogue_; }
  const StreamPlan& plan() const { return plan_; }
  const cbcd::DetectorOptions& detector_options() const {
    return detector_options_;
  }

  /// From the catalogue records in memory to the first answered query:
  /// database build and index construction, or store open and base
  /// ingest. Sets *seconds to the time taken.
  std::unique_ptr<core::Searcher> Setup(double* seconds) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
    store_dir_ = options_.work_dir + "/" + spec_.name + "-store-" +
                 std::to_string(::getpid()) + "-" +
                 std::to_string(setups_++);
    const uint64_t start = NowNs();
    std::unique_ptr<core::Searcher> searcher;
    if (spec_.ingest) {
      store::SegmentSearcherOptions store_options;
      store_options.store_dir = store_dir_;
      store_options.spill_threshold = spill_threshold_;
      auto opened =
          store::SegmentSearcher::Open(BuildDatabase(catalogue_), store_options);
      S3VCD_CHECK_OK(opened.status());
      searcher = std::move(*opened);
    } else {
      searcher = std::make_unique<core::S3Index>(BuildDatabase(catalogue_));
    }
    searcher->StatQuery(catalogue_.records.front().descriptor, model_,
                        detector_options_.query);
    *seconds = (NowNs() - start) * 1e-9;
    return searcher;
  }

  /// Runs the first `max_segments` segments of the stream through
  /// `searcher`: with the library's FingerprintExtractor and StreamMonitor,
  /// or, when `layered`, through the layers' public functions, checking
  /// each layer against the library path as it goes.
  PassResult Pass(core::Searcher* searcher, bool layered, SpanLog* spans,
                  size_t max_segments, RunReport* report) {
    PassResult out;
    const fp::FingerprintExtractor extractor;
    const cbcd::CopyDetector detector(searcher, &model_, detector_options_);
    cbcd::StreamMonitor monitor(&detector, MonitorWindowOptions());
    LayeredMonitor layered_monitor(searcher, &model_, detector_options_,
                                   spans, &out.search, &out.vote);
    auto* store = dynamic_cast<store::SegmentSearcher*>(searcher);
    obs::Counter* windows =
        obs::MetricsRegistry::Global().GetCounter("cbcd.windows_evaluated");
    obs::Counter* spills =
        obs::MetricsRegistry::Global().GetCounter("index.segment_spills");
    obs::Counter* merges =
        obs::MetricsRegistry::Global().GetCounter("store.compactions");
    const uint64_t spills_before = spills->Value();
    const uint64_t merges_before = merges->Value();

    // Inserts: the clips that are copied late in the stream first, then
    // resampled distractors under ids of their own.
    std::vector<core::FingerprintRecord> clip_inserts;
    for (int c = clips_; c < clips_ + inserted_clips_; ++c) {
      for (const fp::LocalFingerprint& lf : catalogue_.clip_fps[c]) {
        clip_inserts.push_back({lf.descriptor, static_cast<uint32_t>(c),
                                lf.time_code, lf.x, lf.y});
      }
    }
    DistractorSource distractors(&catalogue_.pool, options_.seed ^ 0x1a5eULL,
                                 1u << 24);
    uint64_t since_compact = 0;

    const size_t n = std::min(max_segments, plan_.segments.size());
    for (size_t begin = 0; begin < n; begin += kRenderChunk) {
      const size_t end = std::min(n, begin + kRenderChunk);
      std::vector<media::VideoSequence> videos(end - begin);
      ParallelFor(end - begin, [&](size_t i) {
        videos[i] = RenderSegment(plan_.segments[begin + i], catalogue_);
      });
      for (size_t s = begin; s < end; ++s) {
        const Segment& segment = plan_.segments[s];
        const media::VideoSequence& video = videos[s - begin];
        std::vector<fp::LocalFingerprint> fps;
        const uint64_t extract_start = NowNs();
        if (layered) {
          ScopedSpan span(spans, "pipeline.extract", s);
          fps = TracedExtract(extractor.options(), video, spans, s,
                              &out.extract);
        } else {
          fps = extractor.Extract(video);
        }
        out.busy_s += (NowNs() - extract_start) * 1e-9;
        if (layered) {
          report->Check(SameFingerprints(fps, extractor.Extract(video)),
                        "layered extraction differs from "
                        "FingerprintExtractor::Extract on segment " +
                            std::to_string(s));
        }
        out.stream_s += segment.frames / kFps;

        for (const std::vector<fp::LocalFingerprint>& keyframe :
             SplitKeyFrames(ShiftTimeCodes(std::move(fps),
                                           segment.start_frame))) {
          const uint64_t id = out.keyframes++;
          std::vector<core::FingerprintRecord> inserts;
          if (store != nullptr) {
            while (inserts.size() < static_cast<size_t>(inserts_per_keyframe_)) {
              if (out.store.inserted + inserts.size() < clip_inserts.size()) {
                inserts.push_back(
                    clip_inserts[out.store.inserted + inserts.size()]);
              } else {
                inserts.push_back(distractors.Next());
              }
            }
          }
          const uint64_t written_before = store != nullptr ? WrittenBytes() : 0;
          const uint64_t windows_before = windows->Value();
          const uint64_t start = NowNs();
          std::vector<cbcd::Detection> detections;
          {
            ScopedSpan span(spans, "pipeline.keyframe", id);
            if (store != nullptr) {
              {
                ScopedSpan insert_span(spans, kInsertSpan, id);
                for (const core::FingerprintRecord& r : inserts) {
                  if (!store->TryInsert(r.descriptor, r.id, r.time_code, r.x,
                                        r.y)) {
                    ++out.insert_failures;
                  }
                }
              }
              since_compact += inserts.size();
              if (since_compact >= compact_every_) {
                ScopedSpan compact_span(spans, kCompactSpan, id);
                store->Compact();
                since_compact = 0;
              }
              out.store.seconds += (NowNs() - start) * 1e-9;
            }
            detections = layered ? layered_monitor.Push(keyframe, id)
                                 : monitor.PushKeyFrame(keyframe);
          }
          const uint64_t stop = NowNs();
          out.busy_s += (stop - start) * 1e-9;
          if (layered ? layered_monitor.evaluated()
                      : windows->Value() != windows_before) {
            out.window_ms.push_back((stop - start) * 1e-6);
          }
          for (const cbcd::Detection& d : detections) {
            out.reports.push_back({d, static_cast<int64_t>(id)});
          }
          if (store != nullptr) {
            out.store.inserted += inserts.size();
            out.store.written_bytes += WrittenBytes() - written_before;
            out.store.max_segments =
                std::max<uint64_t>(out.store.max_segments,
                                   store->segment_store().num_segments());
          }
          if (layered) {
            report->Check(layered_monitor.LastKeyFrameMatchesStatQuery(keyframe),
                          "selection + refinement scan differs from StatQuery "
                          "at key-frame " + std::to_string(id));
          }
        }
      }
    }
    const uint64_t flush_start = NowNs();
    const std::vector<cbcd::Detection> flushed =
        layered ? layered_monitor.Flush(out.keyframes) : monitor.Flush();
    out.busy_s += (NowNs() - flush_start) * 1e-9;
    for (const cbcd::Detection& d : flushed) {
      out.reports.push_back({d, -1});
    }
    out.store.spills = spills->Value() - spills_before;
    out.store.merges = merges->Value() - merges_before;
    return out;
  }

  /// Compacts the store after a pass, checks its record count and returns
  /// its bytes per record on disk.
  double FinishIngest(core::Searcher* searcher, const PassResult& pass,
                      RunReport* report) {
    auto* store = dynamic_cast<store::SegmentSearcher*>(searcher);
    store->Compact();
    const uint64_t expected = catalogue_.records.size() + pass.store.inserted -
                              pass.insert_failures;
    report->Check(store->Stats().records == expected &&
                      store->segment_store().total_records() == expected,
                  "store holds " + std::to_string(store->Stats().records) +
                      " records after ingest, expected " +
                      std::to_string(expected));
    uint64_t bytes = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(store->store_dir())) {
      if (entry.is_regular_file()) {
        bytes += entry.file_size();
      }
    }
    return static_cast<double>(bytes) / static_cast<double>(expected);
  }

  /// Fraction of embedded copies reported with the right id and an offset
  /// within 4 frames, and the reports that match no copy.
  void Score(const PassResult& pass, double* recall, int* false_alarms) const {
    std::vector<bool> found(plan_.segments.size(), false);
    int copies = 0;
    *false_alarms = 0;
    for (const Report& r : pass.reports) {
      bool matched = false;
      for (size_t s = 0; s < plan_.segments.size(); ++s) {
        const Segment& segment = plan_.segments[s];
        if (segment.clip == static_cast<int>(r.detection.id) &&
            std::abs(r.detection.offset - segment.start_frame) <=
                kOffsetTolerance) {
          found[s] = matched = true;
        }
      }
      *false_alarms += matched ? 0 : 1;
    }
    int copies_found = 0;
    for (size_t s = 0; s < plan_.segments.size(); ++s) {
      if (plan_.segments[s].clip >= 0) {
        ++copies;
        copies_found += found[s] ? 1 : 0;
      }
    }
    *recall = copies == 0 ? 0 : static_cast<double>(copies_found) / copies;
  }

 private:
  const MonitorSpec spec_;
  const RunOptions options_;
  const int clips_;
  const int inserted_clips_;
  const int inserts_per_keyframe_;
  const uint64_t compact_every_;
  const size_t spill_threshold_;
  const Catalogue catalogue_;
  const StreamPlan plan_;
  const cbcd::DetectorOptions detector_options_;
  const core::GaussianDistortionModel model_{kSigma};
  std::string store_dir_;
  int setups_ = 0;
};

std::vector<Report> PushedBefore(const std::vector<Report>& reports,
                                 uint64_t keyframes) {
  std::vector<Report> out;
  for (const Report& r : reports) {
    if (r.keyframe >= 0 && static_cast<uint64_t>(r.keyframe) < keyframes) {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace

RunReport RunMonitorWorkload(const RunOptions& options) {
  const MonitorSpec* spec = nullptr;
  for (const MonitorSpec& s : kSpecs) {
    if (options.workload == s.name) {
      spec = &s;
    }
  }
  S3VCD_CHECK(spec != nullptr);
  RunReport report;
  MonitorRun run(*spec, options);
  std::printf("catalogue: %zu records, %zu clips; stream: %.1f s, %zu "
              "segments, %d copies; depth %d\n",
              run.catalogue().records.size(),
              run.catalogue().clip_seeds.size(), run.plan().seconds(),
              run.plan().segments.size(), run.plan().copies(),
              run.detector_options().query.filter.depth);

  std::unique_ptr<core::Searcher> searcher;
  const double setup_s = MedianSetupSeconds(kSetupRuns, [&] {
    searcher.reset();
    double seconds = 0;
    searcher = run.Setup(&seconds);
    return seconds;
  });

  const PassResult pass = run.Pass(searcher.get(), /*layered=*/false,
                                   nullptr, run.plan().segments.size(),
                                   &report);
  if (spec->ingest) {
    run.FinishIngest(searcher.get(), pass, &report);
  }
  double recall = 0;
  int false_alarms = 0;
  run.Score(pass, &recall, &false_alarms);
  const double false_alarms_per_h = false_alarms * 3600.0 / pass.stream_s;
  report.attempted = pass.keyframes + pass.store.inserted;
  report.failed = pass.insert_failures;
  report.AddEndToEnd("setup_s", setup_s, "s");
  report.AddEndToEnd("rtf", pass.stream_s / pass.busy_s, "x");
  report.AddEndToEnd("latency_p50_ms", Median(pass.window_ms), "ms");
  report.AddEndToEnd("recall", recall, "fraction");
  report.AddEndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  double tail_p = 0;
  const double tail_ms = TailLatency(pass.window_ms, &tail_p);
  std::printf("untraced: %llu key-frames, %zu windows, latency p%.4g %.3f "
              "ms, busy %.3f s, %zu reports, %d false alarms (%.2f/h), %llu "
              "inserts\n",
              static_cast<unsigned long long>(pass.keyframes),
              pass.window_ms.size(), tail_p * 100, tail_ms, pass.busy_s,
              pass.reports.size(), false_alarms, false_alarms_per_h,
              static_cast<unsigned long long>(pass.store.inserted));

  // The layered pass re-runs the stream through each layer's public
  // functions: over the whole stream with spans when traced, otherwise
  // over its first sixteenth as a correctness check. A store is mutated by
  // a pass, so ingest starts again from a fresh one.
  if (spec->ingest) {
    searcher.reset();
    double ignored = 0;
    searcher = run.Setup(&ignored);
  }
  SpanLog spans;
  const size_t segments =
      options.traced ? run.plan().segments.size()
                     : std::max<size_t>(4, run.plan().segments.size() / 16);
  PassResult layered = run.Pass(searcher.get(), /*layered=*/true,
                                options.traced ? &spans : nullptr, segments,
                                &report);
  if (options.traced) {
    report.Check(layered.reports == pass.reports,
                 "traced detections differ from untraced detections");
  } else {
    report.Check(PushedBefore(layered.reports, layered.keyframes) ==
                     PushedBefore(pass.reports, layered.keyframes),
                 "layered detections differ from StreamMonitor detections");
  }
  if (spec->ingest) {
    layered.store.bytes_per_record =
        run.FinishIngest(searcher.get(), layered, &report);
  }
  if (!options.traced) {
    return report;
  }

  const std::map<std::string, double> self = spans.SelfSeconds();
  const auto self_s = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double covered = 0;
  for (const auto& [name, seconds] : self) {
    covered += seconds;
  }
  const double wall = layered.busy_s;
  report.AddLayer("trace.overhead_frac", 1.0 - pass.busy_s / wall, "fraction");
  report.AddLayer("trace.coverage", covered / wall, "fraction");
  AddFingerprintLayer(self, layered.extract, wall, &report);
  AddSearchLayer(layered.search, run.detector_options().query.filter.alpha,
                 self_s(kSelectSpan), self_s(kRefineSpan), wall, &report);
  AddVoteLayer(layered.vote, self_s(kVoteSpan), wall, false_alarms_per_h,
               &report);
  AddServiceLayer(ServiceCounts{}, &report);
  AddStoreLayer(layered.store, wall, &report);
  if (!options.trace_out.empty() && !spans.WriteChromeTrace(options.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
  }
  return report;
}

}  // namespace s3vcd::e2e
