// Google-benchmark micro benchmarks of the core building blocks: Hilbert
// encode/decode at the paper's D=20 K=8 configuration, block filtering,
// query execution, index construction, fingerprint extraction (blur,
// Harris detection, a whole clip), the temporal vote, and the
// observability primitives
// (counter increments and trace spans) whose overhead budgets are quoted
// in docs/observability.md.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <array>
#include <filesystem>
#include <string>
#include <vector>

#include "cbcd/voting.h"
#include "core/database.h"
#include "core/distortion_model.h"
#include "core/filter.h"
#include "core/index.h"
#include "core/scan_kernel.h"
#include "core/synthetic_db.h"
#include "fingerprint/extractor.h"
#include "fingerprint/fingerprint.h"
#include "fingerprint/harris.h"
#include "fingerprint/keyframe.h"
#include "hilbert/hilbert_curve.h"
#include "media/filters.h"
#include "media/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/segment_format.h"
#include "util/rng.h"

namespace s3vcd {
namespace {

void BM_HilbertEncode(benchmark::State& state) {
  const hilbert::HilbertCurve curve(20, 8);
  Rng rng(1);
  uint32_t coords[20];
  for (auto& c : coords) {
    c = static_cast<uint32_t>(rng.UniformInt(0, 255));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.Encode(coords));
  }
}
BENCHMARK(BM_HilbertEncode);

void BM_HilbertDecode(benchmark::State& state) {
  const hilbert::HilbertCurve curve(20, 8);
  Rng rng(2);
  uint32_t coords[20];
  for (auto& c : coords) {
    c = static_cast<uint32_t>(rng.UniformInt(0, 255));
  }
  const BitKey key = curve.Encode(coords);
  for (auto _ : state) {
    curve.Decode(key, coords);
    benchmark::DoNotOptimize(coords[0]);
  }
}
BENCHMARK(BM_HilbertDecode);

void BM_SquaredDistance(benchmark::State& state) {
  Rng rng(3);
  const fp::Fingerprint a = core::UniformRandomFingerprint(&rng);
  const fp::Fingerprint b = core::UniformRandomFingerprint(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fp::SquaredDistance(a, b));
  }
}
BENCHMARK(BM_SquaredDistance);

void BM_StatisticalFilter(benchmark::State& state) {
  const core::BlockFilter filter;
  const core::GaussianDistortionModel model(20.0);
  Rng rng(4);
  const fp::Fingerprint q = core::UniformRandomFingerprint(&rng);
  core::FilterOptions options;
  options.alpha = 0.8;
  options.depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.SelectStatistical(q, model, options));
  }
}
BENCHMARK(BM_StatisticalFilter)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

core::S3Index* SharedIndex() {
  static core::S3Index* index = [] {
    Rng rng(5);
    core::DatabaseBuilder builder;
    std::vector<fp::Fingerprint> centers;
    for (int c = 0; c < 64; ++c) {
      centers.push_back(core::UniformRandomFingerprint(&rng));
    }
    for (int i = 0; i < 200000; ++i) {
      builder.Add(core::DistortFingerprint(
                      centers[static_cast<size_t>(rng.UniformInt(0, 63))],
                      25.0, &rng),
                  static_cast<uint32_t>(i % 100),
                  static_cast<uint32_t>(i));
    }
    return new core::S3Index(builder.Build());
  }();
  return index;
}

// Closed-form statistical selection across partition depths, on realistic
// clustered queries drawn from the shared 200k-record corpus. The labels
// ("stat:d12") feed tools/run_benchmarks.sh, which turns the timings into
// BENCH_filter.json.
void BM_SelectStatistical(benchmark::State& state) {
  core::S3Index* index = SharedIndex();
  const core::BlockFilter& filter = index->filter();
  const core::GaussianDistortionModel model(18.0);
  Rng rng(12);
  std::vector<fp::Fingerprint> queries;
  for (int q = 0; q < 64; ++q) {
    const auto& rec = index->database().record(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(index->database().size()) - 1)));
    queries.push_back(core::DistortFingerprint(rec.descriptor, 18.0, &rng));
  }
  core::FilterOptions options;
  options.alpha = 0.8;
  options.depth = static_cast<int>(state.range(0));
  core::SelectionScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.SelectStatistical(
        queries[i++ % queries.size()], model, options, &scratch));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("stat:d" + std::to_string(options.depth));
}
BENCHMARK(BM_SelectStatistical)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

// Geometric selection by the orthant DFS; labels ("range:d12") land in
// BENCH_filter.json alongside the statistical rows.
void BM_SelectRange(benchmark::State& state) {
  core::S3Index* index = SharedIndex();
  const core::BlockFilter& filter = index->filter();
  Rng rng(13);
  std::vector<fp::Fingerprint> queries;
  for (int q = 0; q < 64; ++q) {
    const auto& rec = index->database().record(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(index->database().size()) - 1)));
    queries.push_back(core::DistortFingerprint(rec.descriptor, 18.0, &rng));
  }
  const int depth = static_cast<int>(state.range(0));
  core::SelectionScratch scratch;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        filter.SelectRange(queries[i++ % queries.size()], /*epsilon=*/90.0,
                           depth, /*max_blocks=*/1 << 20, &scratch));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("range:d" + std::to_string(depth));
}
BENCHMARK(BM_SelectRange)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_StatisticalQuery(benchmark::State& state) {
  core::S3Index* index = SharedIndex();
  const core::GaussianDistortionModel model(18.0);
  Rng rng(6);
  core::QueryOptions options;
  options.filter.alpha = static_cast<double>(state.range(0)) / 100.0;
  options.filter.depth = 14;
  size_t i = 0;
  std::vector<fp::Fingerprint> queries;
  for (int q = 0; q < 64; ++q) {
    const auto& rec = index->database().record(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(index->database().size()) - 1)));
    queries.push_back(core::DistortFingerprint(rec.descriptor, 18.0, &rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->StatQuery(queries[i++ % queries.size()], model,
                                options));
  }
}
BENCHMARK(BM_StatisticalQuery)->Arg(50)->Arg(80)->Arg(95);

// Refinement throughput of each scan kernel over the shared 200k-record
// corpus (a full seqscan sweep in kRadiusFilter mode, the hot path of
// every backend's phase-2 refinement). Arg = ScanKernelKind; variants the
// CPU cannot run are skipped. tools/run_benchmarks.sh turns the reported
// items_per_second into BENCH_scan.json.
void BM_RefineScan(benchmark::State& state) {
  const auto kind = static_cast<core::ScanKernelKind>(state.range(0));
  if (!core::ScanKernelAvailable(kind)) {
    state.SkipWithError("kernel unavailable on this CPU");
    return;
  }
  core::S3Index* index = SharedIndex();
  const core::DescriptorBlock& block = index->database().block();
  Rng rng(9);
  const fp::Fingerprint q = core::UniformRandomFingerprint(&rng);
  const core::RefineSpec spec(core::RefinementMode::kRadiusFilter,
                              /*radius=*/90.0, /*model=*/nullptr);
  const core::ScanKernelKind previous = core::SetScanKernelForTest(kind);
  for (auto _ : state) {
    core::QueryResult result;
    core::ScanRecords(q, block, 0, block.size(), spec, &result);
    benchmark::DoNotOptimize(result.stats.records_scanned);
  }
  core::SetScanKernelForTest(previous);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(block.size()));
  state.SetLabel(core::ScanKernelName(kind));
}
BENCHMARK(BM_RefineScan)->Arg(0)->Arg(1)->Arg(2);

// The same refinement sweep served straight off an on-disk segment (the
// segment backend's phase-2 path): the shared corpus is written once as a
// .s3seg file and the kernels run over its mapped (or resident) columns
// through the DescriptorView. Labels ("segment:<mode>:<kernel>") feed
// tools/run_benchmarks.sh, which emits BENCH_store.json; comparing against
// the in-memory BM_RefineScan row of the same kernel shows what serving
// from the store costs. The sweep runs on the default kernel and its label
// names it, so that comparison is like with like.
// Arg selects mmap (1) vs resident (0) serving.
void BM_SegmentScan(benchmark::State& state) {
  static auto* const segment_path = new std::string();
  if (segment_path->empty()) {
    core::S3Index* index = SharedIndex();
    const core::FingerprintDatabase& db = index->database();
    std::string path =
        (std::filesystem::temp_directory_path() /
         ("s3vcd_bench_segment_" + std::to_string(::getpid()) + ".s3seg"))
            .string();
    store::SegmentWriteOptions write_options;
    write_options.sync = false;
    const Status status = store::WriteSegmentFile(
        path, /*segment_id=*/1, db.block(), db.codes(), write_options);
    if (status.ok()) {
      *segment_path = path;
    }
  }
  if (segment_path->empty()) {
    state.SkipWithError("failed to write benchmark segment");
    return;
  }
  store::SegmentReadOptions read_options;
  read_options.use_mmap = state.range(0) != 0;
  auto reader = store::SegmentReader::Open(*segment_path, read_options);
  if (!reader.ok()) {
    state.SkipWithError(reader.status().ToString().c_str());
    return;
  }
  Rng rng(10);
  const fp::Fingerprint q = core::UniformRandomFingerprint(&rng);
  const core::RefineSpec spec(core::RefinementMode::kRadiusFilter,
                              /*radius=*/90.0, /*model=*/nullptr);
  const core::DescriptorView view = (*reader)->View();
  const core::ScanKernelKind kind = core::ActiveScanKernel();
  for (auto _ : state) {
    core::QueryResult result;
    core::ScanRecords(q, view, 0, view.size(), spec, &result);
    benchmark::DoNotOptimize(result.stats.records_scanned);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(view.size()));
  // The label ends with the kernel, so run_benchmarks.sh can pick the
  // matching memory row.
  state.SetLabel(std::string("segment:") +
                 ((*reader)->mapped() ? "mmap:" : "resident:") +
                 core::ScanKernelName(kind));
}
BENCHMARK(BM_SegmentScan)->Arg(0)->Arg(1);

// The graph-traversal distance path head to head: one GatherScorer::Score
// call over K gathered candidate indices (the beam search's per-hop batch)
// vs the naive loop that scores the same K records one at a time through
// SquaredDistanceU32. Both legs walk the same precomputed random index
// sets over the shared 200k-record corpus, so the cache behaviour of a
// gather is represented. Arg = ScanKernelKind for the batched leg or -1
// for the looped reference. Labels ("gather:batched:<kernel>" /
// "gather:looped") feed tools/run_benchmarks.sh, which folds them into
// BENCH_scan.json — acceptance for the vamana backend requires batched to
// beat looped.
void BM_BatchedDistance(benchmark::State& state) {
  constexpr size_t kGatherK = 32;
  const bool batched = state.range(0) >= 0;
  const auto kind = static_cast<core::ScanKernelKind>(
      batched ? state.range(0) : 0);
  if (batched && !core::ScanKernelAvailable(kind)) {
    state.SkipWithError("kernel unavailable on this CPU");
    return;
  }
  core::S3Index* index = SharedIndex();
  const core::DescriptorBlock& block = index->database().block();
  const core::DescriptorView view = block.View();
  Rng rng(14);
  const fp::Fingerprint q = core::UniformRandomFingerprint(&rng);
  // 64 random index sets of K records each, cycled per iteration so the
  // gathers keep missing cache the way a real beam expansion does.
  std::vector<std::array<uint32_t, kGatherK>> id_sets(64);
  for (auto& ids : id_sets) {
    for (auto& id : ids) {
      id = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(view.count) - 1));
    }
  }
  uint32_t out[kGatherK];
  size_t i = 0;
  if (batched) {
    const core::ScanKernelKind previous = core::SetScanKernelForTest(kind);
    const core::GatherScorer scorer(q, view);
    for (auto _ : state) {
      scorer.Score(id_sets[i++ % id_sets.size()].data(), kGatherK, out);
      benchmark::DoNotOptimize(out[0]);
    }
    core::SetScanKernelForTest(previous);
  } else {
    for (auto _ : state) {
      const auto& ids = id_sets[i++ % id_sets.size()];
      for (size_t j = 0; j < kGatherK; ++j) {
        out[j] = core::SquaredDistanceU32(q.data(), view.descriptor(ids[j]));
      }
      benchmark::DoNotOptimize(out[0]);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kGatherK));
  state.SetLabel(batched ? std::string("gather:batched:") +
                              core::ScanKernelName(kind)
                        : std::string("gather:looped"));
}
BENCHMARK(BM_BatchedDistance)->Arg(-1)->Arg(0)->Arg(1)->Arg(2);

void BM_SequentialScan(benchmark::State& state) {
  core::S3Index* index = SharedIndex();
  Rng rng(7);
  const fp::Fingerprint q = core::UniformRandomFingerprint(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SequentialScan(index->database(), q, 90.0));
  }
}
BENCHMARK(BM_SequentialScan);

void BM_IndexBuild(benchmark::State& state) {
  Rng rng(8);
  std::vector<fp::Fingerprint> points;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    points.push_back(core::UniformRandomFingerprint(&rng));
  }
  for (auto _ : state) {
    core::DatabaseBuilder builder;
    for (int i = 0; i < n; ++i) {
      builder.Add(points[i], 0, static_cast<uint32_t>(i));
    }
    benchmark::DoNotOptimize(builder.Build());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IndexBuild)->Arg(10000)->Arg(100000);

// --- Extraction (paper Section III) ------------------------------------
// A 250-frame 96x80 synthetic clip, the frame size of the end-to-end
// workloads. The blur and Harris rows reuse their working memory across
// iterations, as FingerprintExtractor::Extract does across key-frames.

const media::VideoSequence& ExtractionClip() {
  static const media::VideoSequence clip = [] {
    media::SyntheticVideoConfig config;
    config.width = 96;
    config.height = 80;
    config.num_frames = 250;
    config.seed = 29;
    return media::GenerateSyntheticVideo(config);
  }();
  return clip;
}

// One separable Gaussian blur of a frame; the argument is 2 sigma.
void BM_GaussianBlur(benchmark::State& state) {
  const double sigma = state.range(0) / 2.0;
  const std::vector<float> kernel = media::GaussianKernel1D(sigma);
  const media::Frame& frame = ExtractionClip().frames[100];
  media::BlurScratch scratch;
  media::Frame out;
  for (auto _ : state) {
    media::SeparableBlur(frame, kernel, &scratch, &out);
    benchmark::DoNotOptimize(out.pixels().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(frame.size()));
  state.SetLabel("sigma:" + std::to_string(sigma).substr(0, 3));
}
BENCHMARK(BM_GaussianBlur)->Arg(2)->Arg(3)->Arg(4);

// Harris response, non-maximum suppression and point selection of a frame.
void BM_DetectInterestPoints(benchmark::State& state) {
  const media::Frame& frame = ExtractionClip().frames[100];
  fp::HarrisDetector detector{fp::HarrisOptions{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.Detect(frame));
  }
}
BENCHMARK(BM_DetectInterestPoints);

// Extract over the whole clip; us_per_kf is the wall time per key-frame,
// key-frame detection included.
void BM_ExtractClip(benchmark::State& state) {
  const media::VideoSequence& clip = ExtractionClip();
  const fp::FingerprintExtractor extractor;
  const double key_frames = static_cast<double>(
      fp::DetectKeyFrames(clip, extractor.options().keyframe).size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(clip));
  }
  state.counters["us_per_kf"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * key_frames / 1e6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["keyframes"] = key_frames;
}
BENCHMARK(BM_ExtractClip)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- Temporal vote -----------------------------------------------------
// One monitoring-shaped window (16 key-frames of 50 points): 800 ids with
// 200 (candidate, match) pairs each at random reference time codes, and one
// id coherent at a fixed offset on every key-frame, voted with the nsim
// threshold as the argument (0: every id is voted; 8: the prefilter drops
// the ids that cannot reach it).
void BM_ComputeVotes(benchmark::State& state) {
  Rng rng(11);
  std::vector<cbcd::CandidateEntry> entries;
  for (uint32_t k = 0; k < 16; ++k) {
    for (int p = 0; p < 50; ++p) {
      cbcd::CandidateEntry entry;
      entry.candidate_time_code = 100000 + 12 * k;
      entry.x = static_cast<float>(rng.UniformInt(0, 320));
      entry.y = static_cast<float>(rng.UniformInt(0, 240));
      entries.push_back(entry);
    }
  }
  for (uint32_t i = 0; i < 800; ++i) {
    const uint32_t id = (1u << 24) + 7919 * i;
    for (int n = 0; n < 200; ++n) {
      core::Match m;
      m.id = id;
      m.time_code = static_cast<uint32_t>(rng.UniformInt(0, 90000));
      entries[rng.UniformInt(0, entries.size() - 1)].matches.push_back(m);
    }
  }
  for (size_t e = 0; e < entries.size(); e += 50) {
    core::Match m;
    m.id = 3;
    m.time_code = entries[e].candidate_time_code - 40000;
    m.x = entries[e].x;
    m.y = entries[e].y;
    entries[e].matches.push_back(m);
  }
  cbcd::VoteOptions options;
  options.use_spatial_coherence = true;
  const int min_nsim = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbcd::ComputeVotes(entries, options, min_nsim));
  }
  state.SetItemsProcessed(state.iterations() * (800 * 200 + 16));
}
BENCHMARK(BM_ComputeVotes)->Arg(0)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Observability primitives ------------------------------------------
// These are the costs quoted in docs/observability.md: an uncontended
// counter increment, the same increment from many threads (the sharding is
// what keeps this flat), a histogram record, a gauge set, and a trace span
// in both the disabled (one relaxed load) and enabled (two clock reads +
// one short lock) states.

void BM_ObsCounterIncrement(benchmark::State& state) {
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Increment();
  }
  if (state.thread_index() == 0) {
    counter->Reset();
  }
}
BENCHMARK(BM_ObsCounterIncrement);
BENCHMARK(BM_ObsCounterIncrement)->Threads(4)->Threads(8);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("bench.histogram_us");
  double v = 0.5;
  for (auto _ : state) {
    histogram->Record(v);
    v = v < 1e6 ? v * 1.1 : 0.5;  // walk the buckets
  }
  if (state.thread_index() == 0) {
    histogram->Reset();
  }
}
BENCHMARK(BM_ObsHistogramRecord);
BENCHMARK(BM_ObsHistogramRecord)->Threads(4);

void BM_ObsGaugeSet(benchmark::State& state) {
  obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge("bench.gauge");
  int64_t v = 0;
  for (auto _ : state) {
    gauge->Set(v++);
  }
  if (state.thread_index() == 0) {
    gauge->Reset();
  }
}
BENCHMARK(BM_ObsGaugeSet);

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::TraceRecorder::Global().Disable();
  for (auto _ : state) {
    S3VCD_TRACE_SPAN("bench.span_disabled");
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  if (state.thread_index() == 0) {
    // Small ring: the benchmark records millions of spans and only the
    // ring-wrap path is representative of steady state.
    obs::TraceRecorder::Global().Enable(/*capacity_per_thread=*/1024);
  }
  for (auto _ : state) {
    S3VCD_TRACE_SPAN("bench.span_enabled");
  }
  if (state.thread_index() == 0) {
    obs::TraceRecorder::Global().Disable();
    obs::TraceRecorder::Global().Clear();
  }
}
BENCHMARK(BM_ObsSpanEnabled);

}  // namespace
}  // namespace s3vcd

int main(int argc, char** argv) {
  // The kernel every unpinned row runs on, read from the library's own
  // dispatch so reports never re-derive it.
  benchmark::AddCustomContext("scan_kernel",
                              s3vcd::core::ActiveScanKernelName());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
