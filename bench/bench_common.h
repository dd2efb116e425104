#ifndef S3VCD_BENCH_BENCH_COMMON_H_
#define S3VCD_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cbcd/detector.h"
#include "core/database.h"
#include "core/distortion_model.h"
#include "core/index.h"
#include "core/searcher.h"
#include "core/synthetic_db.h"
#include "fingerprint/extractor.h"
#include "media/synthetic.h"
#include "media/transforms.h"
#include "util/rng.h"

namespace s3vcd::bench {

/// Experiment-wide scale multiplier, read from the environment variable
/// S3VCD_SCALE (default 1.0). Raise it to run closer to paper scale.
double ScaleFactor();

/// Scaled count helper: max(1, round(base * ScaleFactor())).
uint64_t Scaled(uint64_t base);

/// The synthetic video geometry used by all experiments (a scaled-down
/// stand-in for the paper's 352x288 MPEG1 clips; see DESIGN.md).
media::SyntheticVideoConfig ClipConfig(uint64_t seed, int num_frames = 250);

/// The paper reports DB sizes in hours of video at ~50,000 local
/// fingerprints per hour; we reuse that conversion when printing.
double FingerprintsToHours(uint64_t fingerprints);

/// A reference corpus: `num_videos` synthetic clips ingested under ids
/// [0, num_videos), padded with resampled distractors up to `total_size`
/// fingerprints, plus the extracted fingerprints kept per video.
struct Corpus {
  std::vector<media::VideoSequence> videos;
  std::vector<std::vector<fp::LocalFingerprint>> video_fps;
  std::vector<fp::Fingerprint> pool;  ///< all real descriptors (resampling)
  std::unique_ptr<core::S3Index> index;
  fp::FingerprintExtractor extractor;

  /// The corpus index through the backend-agnostic interface; benches that
  /// do not need S3-specific API should query through this.
  const core::Searcher& searcher() const { return *index; }
  /// The reference records of the corpus.
  const core::FingerprintDatabase& db() const { return index->database(); }
};

Corpus BuildCorpus(int num_videos, uint64_t total_size, uint64_t seed,
                   int clip_frames = 250);

/// Re-pads an existing corpus into a new index of a different total size
/// (reuses the extracted real fingerprints; much cheaper than regenerating
/// the videos).
std::unique_ptr<core::S3Index> RebuildIndexWithSize(const Corpus& corpus,
                                                    uint64_t total_size,
                                                    uint64_t seed);

/// Copies the corpus reference records into a standalone database (backend
/// constructors consume their database; the corpus keeps its own).
core::FingerprintDatabase CopyDatabase(const Corpus& corpus);

/// Constructs a served backend ("s3", "seqscan", "vamana", ...) with its
/// default configuration over a copy of the corpus database. Aborts on an
/// unknown name — bench backends are spelled in source, not user input.
std::unique_ptr<core::Searcher> MakeBackend(const Corpus& corpus,
                                            const std::string& name);

/// The five transformation families of the paper's Figure 4, with a sweep
/// of strength values per family (subsets of the paper's abacus x-axes).
struct TransformSweep {
  std::string family;               ///< "shift", "scale", "gamma", ...
  std::vector<double> parameters;   ///< swept strengths
  media::TransformChain MakeChain(double parameter) const;
};
std::vector<TransformSweep> PaperTransformSweeps();

/// The copy transform suite a detector must survive: the five Figure 4
/// families plus MPEG-style DCT quantization, a logo overlay and
/// picture-in-picture, at the moderate strengths the bench/e2e stream
/// embeds its copies with.
struct NamedTransform {
  std::string name;
  media::TransformChain chain;
};
std::vector<NamedTransform> CopyTransformSuite();

/// Good-detection criterion of Section V-C, evaluated per candidate clip:
/// some detection carries the right id with a temporal offset within
/// `frame_tolerance` of the true offset.
bool ClipDetected(const std::vector<cbcd::Detection>& detections,
                  uint32_t expected_id, double expected_offset,
                  double frame_tolerance = 2.0);

/// Prints a standard header line for a bench binary. Also zeroes the
/// global metrics registry and arranges (via atexit) for EmitMetricsBlock
/// to run when the binary exits, so every bench emits a machine-readable
/// metrics block with no per-binary changes.
void PrintHeader(const std::string& name, const std::string& description);

/// Prints the structured metrics block for this run:
///   # METRICS <name> [annotation]
///   { ...one MetricsSnapshot JSON object... }
///   # END METRICS
/// Called automatically at exit after PrintHeader; callable directly to
/// bracket a narrower region. A non-empty annotation (e.g. "backend=s3")
/// is appended to the header line so downstream parsers can key blocks by
/// backend.
void EmitMetricsBlock(const std::string& name,
                      const std::string& annotation = "");

/// Sets the annotation of the metrics block emitted at exit (the blocks
/// emitted directly via EmitMetricsBlock pass their own).
void SetMetricsAnnotation(const std::string& annotation);

}  // namespace s3vcd::bench

#endif  // S3VCD_BENCH_BENCH_COMMON_H_
