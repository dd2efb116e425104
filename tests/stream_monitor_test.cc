// Focused tests of StreamMonitor window mechanics (sliding, overlap,
// flush) using a tiny controlled index so the voting outcome is exactly
// predictable.

#include <gtest/gtest.h>

#include <bit>

#include "cbcd/detector.h"
#include "core/database.h"
#include "core/distortion_model.h"
#include "core/index.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace s3vcd::cbcd {
namespace {

// A database with a single reference "video" of 20 fingerprints at time
// codes 0, 10, 20, ... Each descriptor encodes its index in binary over
// the first five components (values 64/192, the half centers of the
// depth-20 partition), so with a tight model each query matches exactly
// one reference and the voting outcome is fully predictable.
class StreamMonitorTest : public testing::Test {
 protected:
  StreamMonitorTest() : model_(4.0) {
    core::DatabaseBuilder builder;
    for (uint32_t i = 0; i < 20; ++i) {
      builder.Add(Descriptor(i), /*id=*/7, /*tc=*/i * 10, 5.0f * i,
                  3.0f * i);
    }
    index_ = std::make_unique<core::S3Index>(builder.Build());
    DetectorOptions options;
    options.query.filter.alpha = 0.9;
    options.query.filter.depth = 20;  // one split per axis: halves
    options.nsim_threshold = 3;
    detector_ = std::make_unique<CopyDetector>(index_.get(), &model_,
                                               options);
  }

  static fp::Fingerprint Descriptor(uint32_t index) {
    fp::Fingerprint f;
    f.fill(100);
    for (int bit = 0; bit < 5; ++bit) {
      f[bit] = ((index >> bit) & 1u) != 0 ? 192 : 64;
    }
    return f;
  }

  // A key-frame whose single fingerprint matches reference index i, tagged
  // with candidate time code tc.
  std::vector<fp::LocalFingerprint> KeyFrame(uint32_t ref_index,
                                             uint32_t tc) {
    fp::LocalFingerprint lf;
    lf.descriptor = Descriptor(ref_index);
    lf.time_code = tc;
    lf.x = 5.0f * ref_index;
    lf.y = 3.0f * ref_index;
    return {lf};
  }

  core::GaussianDistortionModel model_;
  std::unique_ptr<core::S3Index> index_;
  std::unique_ptr<CopyDetector> detector_;
};

TEST_F(StreamMonitorTest, EmitsOnlyWhenWindowCompletes) {
  StreamMonitor::Options options;
  options.window_keyframes = 4;
  options.window_overlap = 0;
  StreamMonitor monitor(detector_.get(), options);
  // Candidate aligned with offset +100 (candidate tc = ref tc + 100).
  EXPECT_TRUE(monitor.PushKeyFrame(KeyFrame(0, 100)).empty());
  EXPECT_TRUE(monitor.PushKeyFrame(KeyFrame(1, 110)).empty());
  EXPECT_TRUE(monitor.PushKeyFrame(KeyFrame(2, 120)).empty());
  const auto detections = monitor.PushKeyFrame(KeyFrame(3, 130));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].id, 7u);
  EXPECT_DOUBLE_EQ(detections[0].offset, 100.0);
  EXPECT_EQ(detections[0].nsim, 4);
}

TEST_F(StreamMonitorTest, OverlapKeepsTailEvidence) {
  StreamMonitor::Options options;
  options.window_keyframes = 4;
  options.window_overlap = 2;
  StreamMonitor monitor(detector_.get(), options);
  monitor.PushKeyFrame(KeyFrame(0, 100));
  monitor.PushKeyFrame(KeyFrame(1, 110));
  monitor.PushKeyFrame(KeyFrame(2, 120));
  auto first = monitor.PushKeyFrame(KeyFrame(3, 130));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].nsim, 4);
  // Only 2 new key-frames are needed for the next window, and the two
  // retained ones still vote: nsim stays 4.
  monitor.PushKeyFrame(KeyFrame(4, 140));
  auto second = monitor.PushKeyFrame(KeyFrame(5, 150));
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].nsim, 4);
}

TEST_F(StreamMonitorTest, FlushEvaluatesPartialWindowAndClears) {
  StreamMonitor::Options options;
  options.window_keyframes = 10;
  options.window_overlap = 0;
  StreamMonitor monitor(detector_.get(), options);
  monitor.PushKeyFrame(KeyFrame(0, 50));
  monitor.PushKeyFrame(KeyFrame(1, 60));
  monitor.PushKeyFrame(KeyFrame(2, 70));
  const auto detections = monitor.Flush();
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections[0].nsim, 3);
  // Buffer cleared: another flush yields nothing.
  EXPECT_TRUE(monitor.Flush().empty());
}

TEST_F(StreamMonitorTest, IncoherentStreamDoesNotDetect) {
  StreamMonitor::Options options;
  options.window_keyframes = 4;
  options.window_overlap = 0;
  StreamMonitor monitor(detector_.get(), options);
  // Matches exist but time codes are temporally incoherent.
  monitor.PushKeyFrame(KeyFrame(0, 500));
  monitor.PushKeyFrame(KeyFrame(1, 100));
  monitor.PushKeyFrame(KeyFrame(2, 900));
  const auto detections = monitor.PushKeyFrame(KeyFrame(3, 10));
  EXPECT_TRUE(detections.empty());
}

TEST_F(StreamMonitorTest, DetectionStatsAccumulate) {
  StreamMonitor::Options options;
  options.window_keyframes = 2;
  options.window_overlap = 0;
  StreamMonitor monitor(detector_.get(), options);
  DetectionStats stats;
  monitor.PushKeyFrame(KeyFrame(0, 100), &stats);
  monitor.PushKeyFrame(KeyFrame(1, 110), &stats);
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_GE(stats.matches, 2u);
  EXPECT_GE(stats.search_seconds, 0.0);
}

// The same 20 descriptors, each stored for the copied id 7 at tc = 10 i and
// for 300 distractor ids at random time codes, so every query returns one
// copy match and 300 distractor matches. The first 100 distractors also
// hold two descriptors at one shared offset, coherent on two candidates,
// below the threshold of 4.
class PrunedVoteTest : public StreamMonitorTest {
 protected:
  static constexpr int kThreshold = 4;
  static constexpr uint32_t kDistractors = 300;

  PrunedVoteTest() {
    core::DatabaseBuilder builder;
    Rng rng(17);
    for (uint32_t i = 0; i < 20; ++i) {
      builder.Add(Descriptor(i), 7, i * 10, 5.0f * i, 3.0f * i);
      for (uint32_t d = 0; d < kDistractors; ++d) {
        const uint32_t id = (1u << 24) + 101 * d;
        const bool coherent = d < 100 && (i == d % 20 || i == (d + 7) % 20);
        const uint32_t tc =
            coherent ? 50000 + i * 10
                     : static_cast<uint32_t>(rng.UniformInt(0, 90000));
        builder.Add(Descriptor(i), id, tc);
      }
    }
    index_ = std::make_unique<core::S3Index>(builder.Build());
    DetectorOptions options;
    options.query.filter.alpha = 0.9;
    options.query.filter.depth = 20;
    // The unfiltered vote: every distractor of V_alpha reaches it.
    options.query.refinement = core::RefinementMode::kAll;
    options.nsim_threshold = kThreshold;
    detector_ = std::make_unique<CopyDetector>(index_.get(), &model_,
                                               options);
  }

  // The detections of ComputeVotes with no threshold, then the threshold.
  std::vector<Detection> Reference(
      const std::vector<CandidateEntry>& window) const {
    std::vector<Detection> out;
    for (const Vote& vote :
         ComputeVotes(window, detector_->options().vote, 0)) {
      if (vote.nsim >= kThreshold) {
        out.push_back({vote.id, vote.offset, vote.nsim, vote.cost});
      }
    }
    return out;
  }

  static void ExpectSameDetections(const std::vector<Detection>& got,
                                   const std::vector<Detection>& expected) {
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id);
      EXPECT_EQ(got[i].nsim, expected[i].nsim);
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].offset),
                std::bit_cast<uint64_t>(expected[i].offset));
      EXPECT_EQ(std::bit_cast<uint64_t>(got[i].cost),
                std::bit_cast<uint64_t>(expected[i].cost));
    }
  }
};

TEST_F(PrunedVoteTest, StreamMonitorEqualsTheThresholdedFullVote) {
  StreamMonitor::Options options;
  options.window_keyframes = 8;
  options.window_overlap = 3;
  StreamMonitor monitor(detector_.get(), options);
  obs::Counter* evals =
      obs::MetricsRegistry::Global().GetCounter("cbcd.tukey_cost_evals");
  // The stream: the copy at offset +1000 over reference indexes 0..19,
  // with the reference window slid as StreamMonitor slides its buffer.
  std::vector<CandidateEntry> window;
  int windows = 0;
  int detected = 0;
  for (uint32_t i = 0; i < 20; ++i) {
    const std::vector<fp::LocalFingerprint> keyframe =
        KeyFrame(i, 1000 + 10 * i);
    window.push_back(detector_->SearchOne(keyframe[0]));
    ASSERT_EQ(window.back().matches.size(), 1u + kDistractors);
    const uint64_t before = evals->Value();
    const std::vector<Detection> got = monitor.PushKeyFrame(keyframe);
    const uint64_t pruned_evals = evals->Value() - before;
    if (window.size() < static_cast<size_t>(options.window_keyframes)) {
      EXPECT_TRUE(got.empty());
      continue;
    }
    const uint64_t before_full = evals->Value();
    const std::vector<Detection> expected = Reference(window);
    const uint64_t full_evals = evals->Value() - before_full;
    ExpectSameDetections(got, expected);
    EXPECT_GE(full_evals, 5 * pruned_evals)
        << "the prefilter must drop most distractor ids";
    ++windows;
    detected += static_cast<int>(got.size());
    window.erase(window.begin(),
                 window.begin() + (options.window_keyframes -
                                   options.window_overlap));
  }
  ExpectSameDetections(monitor.Flush(), Reference(window));
  EXPECT_EQ(windows, 3);
  EXPECT_EQ(detected, 3) << "the copy is detected in every window";
}

TEST_F(PrunedVoteTest, DetectClipEqualsTheThresholdedFullVote) {
  std::vector<fp::LocalFingerprint> clip;
  std::vector<CandidateEntry> entries;
  for (uint32_t i = 0; i < 20; i += 2) {
    clip.push_back(KeyFrame(i, 300 + 10 * i)[0]);
    entries.push_back(detector_->SearchOne(clip.back()));
  }
  const std::vector<Detection> got = detector_->DetectClip(clip);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].id, 7u);
  EXPECT_EQ(got[0].nsim, 10);
  ExpectSameDetections(got, Reference(entries));
}

}  // namespace
}  // namespace s3vcd::cbcd
