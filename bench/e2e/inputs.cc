#include "inputs.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/synthetic_db.h"
#include "media/synthetic.h"
#include "util/logging.h"

namespace s3vcd::e2e {

namespace {

// Moderate strengths: the copies are meant to be found, so a miss is a
// regression rather than a property of the input.
media::TransformChain MakeTransform(int kind) {
  switch (kind) {
    case 0:
      return media::TransformChain::VerticalShift(10);
    case 1:
      return media::TransformChain::Resize(0.9);
    case 2:
      return media::TransformChain::Gamma(1.3);
    case 3:
      return media::TransformChain::Contrast(1.4);
    case 4:
      return media::TransformChain::Noise(8);
    case 5:
      return media::TransformChain::MpegQuantize(4);
    case 6:
      return media::TransformChain::LogoOverlay(0.2);
    default:
      return media::TransformChain::PictureInPicture(0.8);
  }
}
constexpr int kNumTransforms = 8;

}  // namespace

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, std::max<size_t>(n, 1));
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) {
        fn(i);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
}

media::VideoSequence RenderClip(uint64_t content_seed, int frames) {
  media::SyntheticVideoConfig config;
  config.width = 96;
  config.height = 80;
  config.num_frames = frames;
  config.fps = kFps;
  config.seed = content_seed;
  return media::GenerateSyntheticVideo(config);
}

Catalogue MakeCatalogue(int indexed_clips, int extra_clips,
                        uint64_t total_records, uint64_t seed) {
  Catalogue catalogue;
  Rng rng(seed);
  const int clips = indexed_clips + extra_clips;
  for (int i = 0; i < clips; ++i) {
    catalogue.clip_seeds.push_back(rng.engine()());
  }
  catalogue.clip_fps.resize(clips);
  ParallelFor(clips, [&](size_t i) {
    catalogue.clip_fps[i] = fp::FingerprintExtractor().Extract(
        RenderClip(catalogue.clip_seeds[i], kClipFrames));
  });
  for (int i = 0; i < clips; ++i) {
    for (const fp::LocalFingerprint& lf : catalogue.clip_fps[i]) {
      catalogue.pool.push_back(lf.descriptor);
      if (i < indexed_clips) {
        catalogue.records.push_back({lf.descriptor, static_cast<uint32_t>(i),
                                     lf.time_code, lf.x, lf.y});
      }
    }
  }
  S3VCD_CHECK(!catalogue.pool.empty());
  DistractorSource distractors(&catalogue.pool, rng.engine()(), 1u << 20);
  while (catalogue.records.size() < total_records) {
    catalogue.records.push_back(distractors.Next());
  }
  return catalogue;
}

core::FingerprintDatabase BuildDatabase(const Catalogue& catalogue) {
  core::DatabaseBuilder builder;
  for (const core::FingerprintRecord& r : catalogue.records) {
    builder.Add(r.descriptor, r.id, r.time_code, r.x, r.y);
  }
  return builder.Build();
}

DistractorSource::DistractorSource(const std::vector<fp::Fingerprint>* pool,
                                   uint64_t seed, uint32_t first_id)
    : pool_(pool), rng_(seed), first_id_(first_id) {}

core::FingerprintRecord DistractorSource::Next() {
  const fp::Fingerprint& base = (*pool_)[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(pool_->size()) - 1))];
  core::FingerprintRecord record;
  record.descriptor = core::DistortFingerprint(base, 6.0, &rng_);
  record.id = first_id_ + static_cast<uint32_t>(emitted_ / 500);
  record.time_code = static_cast<uint32_t>(rng_.UniformInt(0, 499999));
  ++emitted_;
  return record;
}

int StreamPlan::copies() const {
  return static_cast<int>(std::count_if(
      segments.begin(), segments.end(),
      [](const Segment& s) { return s.clip >= 0; }));
}

StreamPlan PlanStream(double seconds, int num_clips, int late_from,
                      uint64_t seed) {
  StreamPlan plan;
  Rng rng(seed);
  const int target_frames = static_cast<int>(seconds * kFps);
  bool filler = true;
  while (plan.total_frames < target_frames) {
    Segment segment;
    segment.start_frame = plan.total_frames;
    segment.seed = rng.engine()();
    if (filler) {
      segment.frames = static_cast<int>(rng.UniformInt(100, 200));
    } else {
      const int eligible =
          plan.total_frames >= target_frames / 2 ? num_clips : late_from;
      segment.clip = static_cast<int>(rng.UniformInt(0, eligible - 1));
      segment.frames = kClipFrames;
      segment.transform = MakeTransform(
          static_cast<int>(rng.UniformInt(0, kNumTransforms - 1)));
    }
    plan.total_frames += segment.frames;
    plan.segments.push_back(segment);
    filler = !filler;
  }
  return plan;
}

media::VideoSequence RenderSegment(const Segment& segment,
                                   const Catalogue& catalogue) {
  if (segment.clip < 0) {
    return RenderClip(segment.seed, segment.frames);
  }
  Rng rng(segment.seed);
  return segment.transform.Apply(
      RenderClip(catalogue.clip_seeds[segment.clip], kClipFrames), &rng);
}

std::vector<fp::LocalFingerprint> ShiftTimeCodes(
    std::vector<fp::LocalFingerprint> fps, int start_frame) {
  for (fp::LocalFingerprint& lf : fps) {
    lf.time_code += static_cast<uint32_t>(start_frame);
  }
  return fps;
}

std::vector<std::vector<fp::LocalFingerprint>> SplitKeyFrames(
    const std::vector<fp::LocalFingerprint>& fps) {
  std::vector<std::vector<fp::LocalFingerprint>> keyframes;
  for (size_t i = 0; i < fps.size(); ++i) {
    if (i == 0 || fps[i].time_code != fps[i - 1].time_code) {
      keyframes.emplace_back();
    }
    keyframes.back().push_back(fps[i]);
  }
  return keyframes;
}

}  // namespace s3vcd::e2e
