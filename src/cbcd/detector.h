#ifndef S3VCD_CBCD_DETECTOR_H_
#define S3VCD_CBCD_DETECTOR_H_

#include <cstdint>
#include <vector>

#include "cbcd/voting.h"
#include "core/database.h"
#include "core/distortion_model.h"
#include "core/searcher.h"
#include "fingerprint/extractor.h"
#include "media/frame.h"

namespace s3vcd::cbcd {

/// The copy radius rho, in sigma units of the detector's distortion model
/// (an extension of the paper; DESIGN.md "Copy radius"). It is the smallest
/// radius on a half-sigma grid at which a copy's best voting window keeps
/// nsim >= 8 with probability at least 1 - 1e-3 on every transformation of
/// the copy suite: P[Bin(n, q(rho)) >= 8] >= 1 - 1e-3, with q(r) the
/// per-pair retention P[||Delta S|| <= r sigma] of the selected pairs and
/// n the smallest nsim a copy reaches without a radius. Picture-in-picture
/// binds it (q(9) = 0.85, n = 15). Derived offline by
/// bench/derive_copy_radius; the run is in EXPERIMENTS.md.
inline constexpr double kCopyRadiusSigmas = 9.0;

/// Options of the end-to-end copy detector.
struct DetectorOptions {
  /// Statistical query parameters (alpha, depth, ...). The detector keeps
  /// only the matches within kCopyRadiusSigmas model-normalized units of
  /// the query; set `refinement` to kAll for the paper's unfiltered
  /// statistical query.
  core::QueryOptions query{
      .filter = {},
      .refinement = core::RefinementMode::kNormalizedRadiusFilter,
      .radius = kCopyRadiusSigmas};
  VoteOptions vote;
  /// Decision threshold on the similarity measure nsim: identifiers with
  /// fewer temporally coherent votes are not reported. The paper sets it
  /// so that false alarms average below 1 per hour of monitoring.
  int nsim_threshold = 4;
};

/// A reported copy detection.
struct Detection {
  uint32_t id = 0;
  /// Estimated temporal offset b: candidate_tc = reference_tc + b.
  double offset = 0;
  int nsim = 0;
  double cost = 0;
};

/// Aggregate instrumentation of a detection run.
struct DetectionStats {
  uint64_t queries = 0;
  uint64_t matches = 0;
  double search_seconds = 0;
  double vote_seconds = 0;
};

/// The detection stage of the video CBCD scheme (paper Section III): every
/// candidate fingerprint is searched with a statistical query, the results
/// are buffered, and the voting strategy decides which identifiers are
/// copies.
class CopyDetector {
 public:
  /// `searcher` and `model` must outlive the detector. The detector is
  /// backend-agnostic: any registered Searcher works (the paper's setup is
  /// the "s3" backend).
  CopyDetector(const core::Searcher* searcher,
               const core::DistortionModel* model, DetectorOptions options);

  const DetectorOptions& options() const { return options_; }

  /// Runs detection on the fingerprints of a whole candidate clip.
  /// Detections are sorted by decreasing nsim; only identifiers meeting
  /// the nsim threshold are returned.
  std::vector<Detection> DetectClip(
      const std::vector<fp::LocalFingerprint>& candidate_fps,
      DetectionStats* stats = nullptr) const;

  /// Searches one candidate fingerprint into a buffer entry (exposed so
  /// StreamMonitor can share the machinery).
  CandidateEntry SearchOne(const fp::LocalFingerprint& lf,
                           DetectionStats* stats = nullptr) const;

 private:
  const core::Searcher* searcher_;
  const core::DistortionModel* model_;
  DetectorOptions options_;
};

/// Continuous monitoring front-end (paper Section V-D): a sliding buffer of
/// key-frame search results over a TV stream; votes are evaluated every
/// `window_keyframes` key-frames on the buffered window.
class StreamMonitor {
 public:
  struct Options {
    /// Number of candidate key-frames per voting window.
    int window_keyframes = 24;
    /// Overlap between consecutive windows, in key-frames.
    int window_overlap = 8;
  };

  StreamMonitor(const CopyDetector* detector, Options options);

  /// Feeds the fingerprints of one candidate key-frame; returns the
  /// detections of a completed window, if any (empty otherwise).
  std::vector<Detection> PushKeyFrame(
      const std::vector<fp::LocalFingerprint>& keyframe_fps,
      DetectionStats* stats = nullptr);

  /// Evaluates the remaining buffered window.
  std::vector<Detection> Flush(DetectionStats* stats = nullptr);

 private:
  std::vector<Detection> EvaluateWindow(DetectionStats* stats);

  const CopyDetector* detector_;
  Options options_;
  std::vector<CandidateEntry> buffer_;
  int keyframes_in_window_ = 0;
};

/// Reference-side ingestion helper: extracts the fingerprints of `video`
/// and adds them to `builder` under `id`.
void IngestReferenceVideo(core::DatabaseBuilder* builder,
                          const fp::FingerprintExtractor& extractor,
                          uint32_t id, const media::VideoSequence& video);

}  // namespace s3vcd::cbcd

#endif  // S3VCD_CBCD_DETECTOR_H_
