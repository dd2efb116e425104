#ifndef S3VCD_BENCH_E2E_INPUTS_H_
#define S3VCD_BENCH_E2E_INPUTS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/database.h"
#include "core/record.h"
#include "fingerprint/extractor.h"
#include "fingerprint/fingerprint.h"
#include "media/frame.h"
#include "media/transforms.h"
#include "util/rng.h"

namespace s3vcd::e2e {

/// Frame rate of every clip and of the monitored stream.
inline constexpr double kFps = 25.0;
/// Length of a reference clip, in frames (10 s, the paper's clip length).
inline constexpr int kClipFrames = 250;

/// Runs fn(i) for i in [0, n) on up to nproc threads. Input generation
/// only: nothing timed runs while it is active.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

/// The reference side: synthetic clips, their fingerprints, and the records
/// of the catalogue (the indexed clips padded with resampled distractors).
struct Catalogue {
  /// Content seed of reference clip i; clip i is indexed under id i.
  std::vector<uint64_t> clip_seeds;
  /// Fingerprints of each clip, time codes local to the clip.
  std::vector<std::vector<fp::LocalFingerprint>> clip_fps;
  /// Descriptors of every clip: the population distractors resample.
  std::vector<fp::Fingerprint> pool;
  /// Records of clips [0, indexed_clips) followed by distractors.
  std::vector<core::FingerprintRecord> records;
};

/// Generates `indexed_clips + extra_clips` clips and `total_records`
/// records; the extra clips are extracted but not part of the records (the
/// ingest workload inserts them while it runs).
Catalogue MakeCatalogue(int indexed_clips, int extra_clips,
                        uint64_t total_records, uint64_t seed);

/// The catalogue's records sorted into a database: the first step of
/// every set-up.
core::FingerprintDatabase BuildDatabase(const Catalogue& catalogue);

media::VideoSequence RenderClip(uint64_t content_seed, int frames);

/// Distractor records: a clip fingerprint drawn at random, jittered per
/// component (sigma 6 bytes, like core::AppendDistractors), under ids of
/// 500 records each from `first_id`, with random time codes so they carry
/// no temporal coherence.
class DistractorSource {
 public:
  DistractorSource(const std::vector<fp::Fingerprint>* pool, uint64_t seed,
                   uint32_t first_id);
  core::FingerprintRecord Next();

 private:
  const std::vector<fp::Fingerprint>* pool_;
  Rng rng_;
  uint32_t first_id_;
  uint64_t emitted_ = 0;
};

/// One segment of the monitored stream: unrelated filler, or a transformed
/// copy of a whole reference clip.
struct Segment {
  int clip = -1;       ///< copied reference clip, -1 for filler
  uint64_t seed = 0;   ///< filler content seed / copy transform noise seed
  int start_frame = 0;
  int frames = 0;
  media::TransformChain transform;
};

struct StreamPlan {
  std::vector<Segment> segments;
  int total_frames = 0;
  double seconds() const { return total_frames / kFps; }
  int copies() const;
};

/// Alternates filler (4 to 8 s) with copies of clips [0, num_clips), each
/// copy under one transform drawn from the paper's five Figure 4 families
/// at moderate strength, MPEG-style DCT quantization, a logo or
/// picture-in-picture. Clips [late_from, num_clips) are only copied in the
/// second half of the stream.
StreamPlan PlanStream(double seconds, int num_clips, int late_from,
                      uint64_t seed);

media::VideoSequence RenderSegment(const Segment& segment,
                                   const Catalogue& catalogue);

/// Moves segment-local time codes onto the stream timeline.
std::vector<fp::LocalFingerprint> ShiftTimeCodes(
    std::vector<fp::LocalFingerprint> fps, int start_frame);

/// Splits extracted fingerprints into key-frames (runs of equal time code).
std::vector<std::vector<fp::LocalFingerprint>> SplitKeyFrames(
    const std::vector<fp::LocalFingerprint>& fps);

}  // namespace s3vcd::e2e

#endif  // S3VCD_BENCH_E2E_INPUTS_H_
