#include "bench_common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "store/make_searcher.h"
#include "util/logging.h"

namespace s3vcd::bench {

double ScaleFactor() {
  const char* env = std::getenv("S3VCD_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

uint64_t Scaled(uint64_t base) {
  const double v = std::round(static_cast<double>(base) * ScaleFactor());
  return v < 1 ? 1 : static_cast<uint64_t>(v);
}

media::SyntheticVideoConfig ClipConfig(uint64_t seed, int num_frames) {
  media::SyntheticVideoConfig config;
  config.width = 96;
  config.height = 80;
  config.num_frames = num_frames;
  config.seed = seed;
  return config;
}

double FingerprintsToHours(uint64_t fingerprints) {
  // Paper Section V: about 50,000 local fingerprints per hour of video.
  return static_cast<double>(fingerprints) / 50000.0;
}

Corpus BuildCorpus(int num_videos, uint64_t total_size, uint64_t seed,
                   int clip_frames) {
  Corpus corpus;
  core::DatabaseBuilder builder;
  for (int v = 0; v < num_videos; ++v) {
    corpus.videos.push_back(
        media::GenerateSyntheticVideo(ClipConfig(seed + v, clip_frames)));
    corpus.video_fps.push_back(
        corpus.extractor.Extract(corpus.videos.back()));
    builder.AddVideo(static_cast<uint32_t>(v), corpus.video_fps.back());
    for (const auto& lf : corpus.video_fps.back()) {
      corpus.pool.push_back(lf.descriptor);
    }
  }
  S3VCD_CHECK(!corpus.pool.empty());
  if (builder.size() < total_size) {
    Rng rng(seed ^ 0x5eedULL);
    core::AppendDistractors(&builder, corpus.pool,
                            total_size - builder.size(),
                            core::DistractorOptions{}, &rng);
  }
  corpus.index = std::make_unique<core::S3Index>(builder.Build());
  return corpus;
}

std::unique_ptr<core::S3Index> RebuildIndexWithSize(const Corpus& corpus,
                                                    uint64_t total_size,
                                                    uint64_t seed) {
  core::DatabaseBuilder builder;
  for (size_t v = 0; v < corpus.video_fps.size(); ++v) {
    builder.AddVideo(static_cast<uint32_t>(v), corpus.video_fps[v]);
  }
  if (builder.size() < total_size) {
    Rng rng(seed ^ 0xd15eedULL);
    core::AppendDistractors(&builder, corpus.pool,
                            total_size - builder.size(),
                            core::DistractorOptions{}, &rng);
  }
  return std::make_unique<core::S3Index>(builder.Build());
}

core::FingerprintDatabase CopyDatabase(const Corpus& corpus) {
  const core::FingerprintDatabase& db = corpus.db();
  core::DatabaseBuilder builder;
  for (size_t i = 0; i < db.size(); ++i) {
    const core::FingerprintRecord& r = db.record(i);
    builder.Add(r.descriptor, r.id, r.time_code, r.x, r.y);
  }
  return builder.Build();
}

std::unique_ptr<core::Searcher> MakeBackend(const Corpus& corpus,
                                            const std::string& name) {
  Result<std::unique_ptr<core::Searcher>> backend =
      store::MakeSearcher(name, CopyDatabase(corpus));
  S3VCD_CHECK(backend.ok());
  return std::move(*backend);
}

media::TransformChain TransformSweep::MakeChain(double parameter) const {
  if (family == "shift") {
    return media::TransformChain::VerticalShift(parameter);
  }
  if (family == "scale") {
    return media::TransformChain::Resize(parameter);
  }
  if (family == "gamma") {
    return media::TransformChain::Gamma(parameter);
  }
  if (family == "contrast") {
    return media::TransformChain::Contrast(parameter);
  }
  if (family == "noise") {
    return media::TransformChain::Noise(parameter);
  }
  return media::TransformChain::Identity();
}

std::vector<TransformSweep> PaperTransformSweeps() {
  // Subsets of the x-axes of the paper's Figures 8 and 9 abacuses.
  return {
      {"shift", {5, 15, 25, 35}},
      {"scale", {0.7, 0.85, 1.0, 1.2, 1.4}},
      {"gamma", {0.5, 0.8, 1.2, 1.8, 2.4}},
      {"contrast", {0.5, 0.8, 1.2, 2.0, 2.8}},
      {"noise", {5, 15, 25, 35}},
  };
}

std::vector<NamedTransform> CopyTransformSuite() {
  return {
      {"shift 10%", media::TransformChain::VerticalShift(10)},
      {"resize 0.9", media::TransformChain::Resize(0.9)},
      {"gamma 1.3", media::TransformChain::Gamma(1.3)},
      {"contrast 1.4", media::TransformChain::Contrast(1.4)},
      {"noise 8", media::TransformChain::Noise(8)},
      {"mpeg q4", media::TransformChain::MpegQuantize(4)},
      {"logo 0.2", media::TransformChain::LogoOverlay(0.2)},
      {"pip 0.8", media::TransformChain::PictureInPicture(0.8)},
  };
}

bool ClipDetected(const std::vector<cbcd::Detection>& detections,
                  uint32_t expected_id, double expected_offset,
                  double frame_tolerance) {
  for (const auto& d : detections) {
    if (d.id == expected_id &&
        std::abs(d.offset - expected_offset) <= frame_tolerance) {
      return true;
    }
  }
  return false;
}

namespace {

// Name registered by PrintHeader, emitted by the atexit hook.
std::string* MetricsBlockName() {
  static std::string* name = new std::string();
  return name;
}

// Annotation of the at-exit block (SetMetricsAnnotation).
std::string* MetricsBlockAnnotation() {
  static std::string* annotation = new std::string();
  return annotation;
}

void EmitMetricsBlockAtExit() {
  EmitMetricsBlock(*MetricsBlockName(), *MetricsBlockAnnotation());
}

}  // namespace

void EmitMetricsBlock(const std::string& name,
                      const std::string& annotation) {
  const std::string json = obs::MetricsRegistry::Global().Snapshot().ToJson();
  // Every block carries the refine-kernel choice so perf numbers are
  // attributable to the scalar/SSE2/AVX2 path that produced them.
  std::string full = annotation;
  if (!full.empty()) {
    full += ' ';
  }
  full += "scan_kernel=";
  full += core::ActiveScanKernelName();
  std::printf("# METRICS %s %s\n%s\n# END METRICS\n", name.c_str(),
              full.c_str(), json.c_str());
  std::fflush(stdout);
}

void SetMetricsAnnotation(const std::string& annotation) {
  *MetricsBlockAnnotation() = annotation;
}

void PrintHeader(const std::string& name, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", name.c_str(), description.c_str());
  std::printf("scale factor S3VCD_SCALE=%.2f\n", ScaleFactor());
  std::printf("==============================================================\n");
  std::fflush(stdout);
  // Bracket the run: metrics recorded before the header (static init,
  // corpus warm-up in main's callers) are not part of the experiment.
  const bool first_call = MetricsBlockName()->empty();
  *MetricsBlockName() = name;
  obs::MetricsRegistry::Global().Reset();
  if (first_call) {
    std::atexit(EmitMetricsBlockAtExit);
  }
}

}  // namespace s3vcd::bench
