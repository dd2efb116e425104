#include "cbcd/detector.h"

#include <gtest/gtest.h>

#include <bit>

#include "core/index.h"
#include "core/synthetic_db.h"
#include "media/synthetic.h"
#include "media/transforms.h"
#include "util/rng.h"

namespace s3vcd::cbcd {
namespace {

// Shared end-to-end fixture: several reference videos are ingested, then
// transformed versions are submitted as candidates.
class CbcdEndToEnd : public testing::Test {
 protected:
  static constexpr int kNumVideos = 6;

  static void SetUpTestSuite() {
    state_ = new State;
    core::DatabaseBuilder builder;
    const fp::FingerprintExtractor extractor;
    for (int v = 0; v < kNumVideos; ++v) {
      media::SyntheticVideoConfig config;
      config.width = 96;
      config.height = 80;
      config.num_frames = 200;
      config.seed = 9000 + v;
      state_->videos.push_back(media::GenerateSyntheticVideo(config));
      IngestReferenceVideo(&builder, extractor, static_cast<uint32_t>(v),
                           state_->videos.back());
    }
    // Pad with distractors resampled from the ingested fingerprints.
    std::vector<fp::Fingerprint> pool;
    {
      core::DatabaseBuilder probe;
      for (int v = 0; v < kNumVideos; ++v) {
        IngestReferenceVideo(&probe, extractor, 0, state_->videos[v]);
      }
      core::FingerprintDatabase tmp = probe.Build();
      for (size_t i = 0; i < tmp.size(); ++i) {
        pool.push_back(tmp.record(i).descriptor);
      }
    }
    Rng rng(4242);
    core::AppendDistractors(&builder, pool, 20000, core::DistractorOptions{},
                            &rng);
    state_->index =
        std::make_unique<core::S3Index>(builder.Build());
    // Sigma matched to the measured descriptor distortion of mild
    // transforms in the synthetic stack (cf. distortion_test).
    state_->model = std::make_unique<core::GaussianDistortionModel>(12.0);
  }

  static void TearDownTestSuite() {
    delete state_;
    state_ = nullptr;
  }

  static DetectorOptions DefaultOptions() {
    DetectorOptions options;
    options.query.filter.alpha = 0.85;
    options.query.filter.depth = 12;
    // Our reference videos are only 200 frames long, so random temporal
    // coherence is far more likely than in the paper's hour-scale archive;
    // the spatial-coherence extension of the vote restores the margin.
    options.vote.use_spatial_coherence = true;
    options.nsim_threshold = 8;
    return options;
  }

  struct State {
    std::vector<media::VideoSequence> videos;
    std::unique_ptr<core::S3Index> index;
    std::unique_ptr<core::GaussianDistortionModel> model;
  };
  static State* state_;
};

CbcdEndToEnd::State* CbcdEndToEnd::state_ = nullptr;

TEST_F(CbcdEndToEnd, DetectsUntransformedCopy) {
  const CopyDetector detector(state_->index.get(), state_->model.get(),
                              DefaultOptions());
  const fp::FingerprintExtractor extractor;
  const auto candidate_fps = extractor.Extract(state_->videos[2]);
  DetectionStats stats;
  const auto detections = detector.DetectClip(candidate_fps, &stats);
  ASSERT_FALSE(detections.empty()) << "identical copy must be detected";
  EXPECT_EQ(detections[0].id, 2u);
  EXPECT_NEAR(detections[0].offset, 0.0, 2.0);
  EXPECT_GT(stats.queries, 0u);
}

TEST_F(CbcdEndToEnd, DetectsTransformedCopies) {
  const CopyDetector detector(state_->index.get(), state_->model.get(),
                              DefaultOptions());
  const fp::FingerprintExtractor extractor;
  Rng rng(11);
  const struct {
    media::TransformChain chain;
    int video;
  } cases[] = {
      {media::TransformChain::Gamma(1.3), 0},
      {media::TransformChain::Contrast(1.4), 1},
      {media::TransformChain::Noise(8.0), 3},
      {media::TransformChain::VerticalShift(10.0), 4},
  };
  int detected = 0;
  for (const auto& c : cases) {
    const media::VideoSequence transformed =
        c.chain.Apply(state_->videos[c.video], &rng);
    const auto fps = extractor.Extract(transformed);
    const auto detections = detector.DetectClip(fps);
    for (const auto& d : detections) {
      if (d.id == static_cast<uint32_t>(c.video)) {
        ++detected;
        break;
      }
    }
  }
  EXPECT_GE(detected, 3) << "mild photometric/shift copies must be found";
}

TEST_F(CbcdEndToEnd, RejectsUnrelatedVideo) {
  const CopyDetector detector(state_->index.get(), state_->model.get(),
                              DefaultOptions());
  const fp::FingerprintExtractor extractor;
  media::SyntheticVideoConfig config;
  config.width = 96;
  config.height = 80;
  config.num_frames = 200;
  config.seed = 777777;  // never ingested
  const auto fps =
      extractor.Extract(media::GenerateSyntheticVideo(config));
  const auto detections = detector.DetectClip(fps);
  EXPECT_TRUE(detections.empty())
      << "unrelated content must not be reported (first id "
      << (detections.empty() ? 0 : detections[0].id) << ")";
}

TEST_F(CbcdEndToEnd, OffsetTracksClipPosition) {
  // Submit a sub-clip starting at frame 60: the estimated offset must be
  // close to +60 (candidate tc 0 corresponds to reference tc 60).
  const CopyDetector detector(state_->index.get(), state_->model.get(),
                              DefaultOptions());
  const fp::FingerprintExtractor extractor;
  media::VideoSequence subclip;
  subclip.fps = state_->videos[5].fps;
  for (int f = 60; f < 200; ++f) {
    subclip.frames.push_back(state_->videos[5].frames[f]);
  }
  const auto fps = extractor.Extract(subclip);
  const auto detections = detector.DetectClip(fps);
  ASSERT_FALSE(detections.empty());
  EXPECT_EQ(detections[0].id, 5u);
  EXPECT_NEAR(detections[0].offset, -60.0, 3.0);
}

TEST_F(CbcdEndToEnd, StreamMonitorFindsEmbeddedCopy) {
  const CopyDetector detector(state_->index.get(), state_->model.get(),
                              DefaultOptions());
  StreamMonitor::Options options;
  options.window_keyframes = 12;
  options.window_overlap = 4;
  StreamMonitor monitor(&detector, options);

  // A "stream": unrelated content, then video 1, then unrelated content.
  const fp::FingerprintExtractor extractor;
  media::SyntheticVideoConfig unrelated_config;
  unrelated_config.width = 96;
  unrelated_config.height = 80;
  unrelated_config.num_frames = 150;
  unrelated_config.seed = 31337;
  const auto unrelated =
      extractor.Extract(media::GenerateSyntheticVideo(unrelated_config));
  const auto copy = extractor.Extract(state_->videos[1]);

  auto push_all = [&](const std::vector<fp::LocalFingerprint>& fps,
                      uint32_t tc_base,
                      std::vector<Detection>* out) {
    size_t i = 0;
    while (i < fps.size()) {
      std::vector<fp::LocalFingerprint> keyframe;
      const uint32_t tc = fps[i].time_code;
      while (i < fps.size() && fps[i].time_code == tc) {
        keyframe.push_back(fps[i]);
        keyframe.back().time_code = tc + tc_base;
        ++i;
      }
      auto detections = monitor.PushKeyFrame(keyframe);
      out->insert(out->end(), detections.begin(), detections.end());
    }
  };

  std::vector<Detection> all;
  push_all(unrelated, 0, &all);
  push_all(copy, 200, &all);
  push_all(unrelated, 500, &all);
  auto final_detections = monitor.Flush();
  all.insert(all.end(), final_detections.begin(), final_detections.end());

  bool found = false;
  for (const auto& d : all) {
    EXPECT_EQ(d.id, 1u) << "only the embedded copy may be reported";
    if (d.id == 1u) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(CbcdEndToEnd, DetectClipEqualsTheThresholdedFullVote) {
  // DetectClip votes with the threshold as ComputeVotes' min_nsim, which
  // drops ids that cannot reach it before the vote; the detections must be
  // those of the full vote cut at the threshold, bit for bit.
  const CopyDetector detector(state_->index.get(), state_->model.get(),
                              DefaultOptions());
  const fp::FingerprintExtractor extractor;
  Rng rng(12);
  const auto fps = extractor.Extract(
      media::TransformChain::Noise(8.0).Apply(state_->videos[3], &rng));
  std::vector<CandidateEntry> entries;
  for (const fp::LocalFingerprint& lf : fps) {
    entries.push_back(detector.SearchOne(lf));
  }
  std::vector<Vote> expected;
  for (const Vote& vote : ComputeVotes(entries, DefaultOptions().vote, 0)) {
    if (vote.nsim >= DefaultOptions().nsim_threshold) {
      expected.push_back(vote);
    }
  }
  const auto detections = detector.DetectClip(fps);
  ASSERT_FALSE(detections.empty());
  ASSERT_EQ(detections.size(), expected.size());
  for (size_t i = 0; i < detections.size(); ++i) {
    EXPECT_EQ(detections[i].id, expected[i].id);
    EXPECT_EQ(detections[i].nsim, expected[i].nsim);
    EXPECT_EQ(std::bit_cast<uint64_t>(detections[i].offset),
              std::bit_cast<uint64_t>(expected[i].offset));
    EXPECT_EQ(std::bit_cast<uint64_t>(detections[i].cost),
              std::bit_cast<uint64_t>(expected[i].cost));
  }
}

TEST_F(CbcdEndToEnd, HigherThresholdSuppressesDetections) {
  DetectorOptions strict = DefaultOptions();
  strict.nsim_threshold = 1000000;
  const CopyDetector detector(state_->index.get(), state_->model.get(),
                              strict);
  const fp::FingerprintExtractor extractor;
  const auto fps = extractor.Extract(state_->videos[0]);
  EXPECT_TRUE(detector.DetectClip(fps).empty());
}

}  // namespace
}  // namespace s3vcd::cbcd
