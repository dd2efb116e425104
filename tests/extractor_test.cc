#include "fingerprint/extractor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fingerprint/distortion.h"
#include "media/synthetic.h"
#include "media/transforms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace s3vcd::fp {
namespace {

media::VideoSequence TestClip(uint64_t seed, int frames = 150) {
  media::SyntheticVideoConfig config;
  config.width = 96;
  config.height = 80;
  config.num_frames = frames;
  config.seed = seed;
  return media::GenerateSyntheticVideo(config);
}

TEST(ExtractorTest, ProducesFingerprintsWithValidFields) {
  const media::VideoSequence video = TestClip(41);
  const FingerprintExtractor extractor;
  const auto fps = extractor.Extract(video);
  ASSERT_GT(fps.size(), 10u);
  for (const auto& lf : fps) {
    EXPECT_GE(lf.x, 0);
    EXPECT_LT(lf.x, video.width());
    EXPECT_GE(lf.y, 0);
    EXPECT_LT(lf.y, video.height());
    EXPECT_LT(lf.time_code, static_cast<uint32_t>(video.num_frames()));
  }
  // Time codes must be non-decreasing (key-frame order).
  for (size_t i = 1; i < fps.size(); ++i) {
    EXPECT_LE(fps[i - 1].time_code, fps[i].time_code);
  }
}

TEST(ExtractorTest, DeterministicForSameVideo) {
  const media::VideoSequence video = TestClip(42);
  const FingerprintExtractor extractor;
  const auto a = extractor.Extract(video);
  const auto b = extractor.Extract(video);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].descriptor, b[i].descriptor);
    EXPECT_EQ(a[i].time_code, b[i].time_code);
  }
}

TEST(ExtractorTest, EmptyVideoYieldsNothing) {
  const FingerprintExtractor extractor;
  EXPECT_TRUE(extractor.Extract(media::VideoSequence{}).empty());
}

TEST(ExtractorTest, ExtractAtPositionsSkipsBorderPoints) {
  const media::VideoSequence video = TestClip(43, 30);
  const FingerprintExtractor extractor;
  const std::vector<std::pair<double, double>> positions = {
      {1.0, 1.0},    // too close to the border
      {48.0, 40.0},  // interior
      {95.0, 79.0},  // too close to the border
  };
  const auto result = extractor.ExtractAtPositions(video, 10, positions);
  ASSERT_EQ(result.kept.size(), 3u);
  EXPECT_FALSE(result.kept[0]);
  EXPECT_TRUE(result.kept[1]);
  EXPECT_FALSE(result.kept[2]);
  EXPECT_EQ(result.fingerprints.size(), 1u);
}

TEST(ExtractorTest, CountsAndTracesEveryKeyFrame) {
  const media::VideoSequence video = TestClip(48);
  const FingerprintExtractor extractor;
  const size_t key_frames =
      DetectKeyFrames(video, extractor.options().keyframe).size();
  ASSERT_GT(key_frames, 0u);
  obs::Counter* keyframes =
      obs::MetricsRegistry::Global().GetCounter("fingerprint.keyframes");
  obs::Counter* points =
      obs::MetricsRegistry::Global().GetCounter("fingerprint.points");
  const uint64_t keyframes_before = keyframes->Value();
  const uint64_t points_before = points->Value();

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  const std::vector<LocalFingerprint> fps = extractor.Extract(video);
  recorder.Disable();

  EXPECT_EQ(keyframes->Value() - keyframes_before, key_frames);
  EXPECT_EQ(points->Value() - points_before, fps.size());
  size_t harris_spans = 0;
  size_t descriptor_spans = 0;
  for (const obs::TraceEvent& event : recorder.Collect()) {
    harris_spans += std::string(event.name) == "fingerprint.harris";
    descriptor_spans += std::string(event.name) == "fingerprint.descriptor";
  }
  recorder.Clear();
  EXPECT_EQ(harris_spans, key_frames);
  EXPECT_EQ(descriptor_spans, key_frames);
}

TEST(ExtractorTest, ExtractAtPositionsSkipsNonFinitePositions) {
  const media::VideoSequence video = TestClip(43, 30);
  const FingerprintExtractor extractor;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> positions = {
      {nan, 40.0}, {48.0, nan}, {nan, nan}, {inf, 40.0},
      {48.0, -inf}, {48.0, 40.0},
  };
  const auto result = extractor.ExtractAtPositions(video, 10, positions);
  ASSERT_EQ(result.kept.size(), positions.size());
  for (size_t i = 0; i + 1 < positions.size(); ++i) {
    EXPECT_FALSE(result.kept[i]) << "position " << i;
  }
  EXPECT_TRUE(result.kept.back());
  ASSERT_EQ(result.fingerprints.size(), 1u);
  EXPECT_EQ(result.fingerprints[0].x, 48.0f);
}

// 64-bit FNV-1a over every output field of Extract: descriptor bytes, then
// the bytes of x, y and the time code.
uint64_t HashFingerprints(const std::vector<LocalFingerprint>& fps) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  for (const LocalFingerprint& lf : fps) {
    mix(lf.descriptor.data(), lf.descriptor.size());
    mix(&lf.x, sizeof(lf.x));
    mix(&lf.y, sizeof(lf.y));
    mix(&lf.time_code, sizeof(lf.time_code));
  }
  return hash;
}

// Pins the extractor's output bit for bit, so that a refactor or a compile
// flag that moves any output bit fails here rather than in a benchmark.
TEST(ExtractorTest, GoldenOutputHash) {
  const FingerprintExtractor extractor;
  const std::vector<LocalFingerprint> a = extractor.Extract(TestClip(41));
  const std::vector<LocalFingerprint> b = extractor.Extract(TestClip(47));
  EXPECT_EQ(a.size(), 180u);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(HashFingerprints(a), 0xf8632defc15609f0ULL);
  EXPECT_EQ(HashFingerprints(b), 0x46e6c7d8a9b3dd64ULL);
}

bool SameFingerprints(const std::vector<LocalFingerprint>& a,
                      const std::vector<LocalFingerprint>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const LocalFingerprint& x, const LocalFingerprint& y) {
                      return x.descriptor == y.descriptor && x.x == y.x &&
                             x.y == y.y && x.time_code == y.time_code;
                    });
}

// Four threads share one extractor and extract clips of two sizes in
// different orders, over and over; every result equals the serial one.
TEST(ExtractorTest, ConcurrentExtractMatchesSerial) {
  std::vector<media::VideoSequence> videos;
  for (const auto& [w, h, seed] :
       {std::tuple{96, 80, 51}, {176, 144, 52}, {96, 80, 53}, {176, 144, 54}}) {
    media::SyntheticVideoConfig config;
    config.width = w;
    config.height = h;
    config.num_frames = 40;
    config.seed = seed;
    videos.push_back(media::GenerateSyntheticVideo(config));
  }
  const FingerprintExtractor extractor;
  std::vector<std::vector<LocalFingerprint>> serial;
  for (const media::VideoSequence& video : videos) {
    serial.push_back(extractor.Extract(video));
    ASSERT_FALSE(serial.back().empty());
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds * static_cast<int>(videos.size()); ++i) {
        const size_t v = (t + i) % videos.size();
        mismatches[t] += !SameFingerprints(extractor.Extract(videos[v]),
                                           serial[v]);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(ExtractorTest, RecordsOneExtractTimePerCall) {
  obs::Histogram* extract_us =
      obs::MetricsRegistry::Global().GetHistogram("fingerprint.extract_us");
  const uint64_t before = extract_us->Count();
  const FingerprintExtractor extractor;
  extractor.Extract(TestClip(49, 30));
  extractor.Extract(media::VideoSequence{});
  EXPECT_EQ(extract_us->Count() - before, 2u);
}

TEST(DistortionSamplesTest, IdentityTransformGivesNearZeroDistortion) {
  const media::VideoSequence video = TestClip(44);
  PerfectDetectorOptions options;
  Rng rng(1);
  const auto samples = CollectDistortionSamples(
      video, media::TransformChain::Identity(), options, &rng);
  ASSERT_GT(samples.size(), 10u);
  const DistortionStats stats = ComputeDistortionStats(samples);
  EXPECT_LT(stats.sigma, 1.0)
      << "identity + perfect positions must reproduce the descriptor";
}

TEST(DistortionSamplesTest, SeverityOrderingMatchesPaper) {
  // Table I: resize(0.84) is far more severe than noise(10); detector
  // imprecision (delta_pix) adds distortion on top.
  const media::VideoSequence video = TestClip(45);
  Rng rng(2);
  PerfectDetectorOptions exact;
  PerfectDetectorOptions imprecise;
  imprecise.delta_pix = 1.0;

  const auto noise_samples = CollectDistortionSamples(
      video, media::TransformChain::Noise(10.0), exact, &rng);
  const auto resize_samples = CollectDistortionSamples(
      video, media::TransformChain::Resize(0.84), imprecise, &rng);
  ASSERT_GT(noise_samples.size(), 10u);
  ASSERT_GT(resize_samples.size(), 10u);
  const double sigma_noise = ComputeDistortionStats(noise_samples).sigma;
  const double sigma_resize = ComputeDistortionStats(resize_samples).sigma;
  EXPECT_GT(sigma_resize, sigma_noise);
  EXPECT_GT(sigma_noise, 0.5);
}

TEST(DistortionSamplesTest, DeltaPixIncreasesSigma) {
  const media::VideoSequence video = TestClip(46);
  Rng rng(3);
  PerfectDetectorOptions exact;
  PerfectDetectorOptions imprecise;
  imprecise.delta_pix = 1.0;
  const auto a = CollectDistortionSamples(
      video, media::TransformChain::Gamma(0.9), exact, &rng);
  const auto b = CollectDistortionSamples(
      video, media::TransformChain::Gamma(0.9), imprecise, &rng);
  ASSERT_GT(a.size(), 10u);
  ASSERT_GT(b.size(), 10u);
  EXPECT_GT(ComputeDistortionStats(b).sigma,
            ComputeDistortionStats(a).sigma);
}

TEST(DistortionStatsTest, EmptyInputIsSafe) {
  const DistortionStats stats = ComputeDistortionStats({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.sigma, 0.0);
}

TEST(DistortionStatsTest, HandComputedExample) {
  DistortionSample s1;
  DistortionSample s2;
  s1.reference.fill(100);
  s1.distorted.fill(98);   // delta = +2 on every component
  s2.reference.fill(100);
  s2.distorted.fill(102);  // delta = -2
  const DistortionStats stats = ComputeDistortionStats({s1, s2});
  EXPECT_EQ(stats.count, 2u);
  for (int j = 0; j < kDims; ++j) {
    EXPECT_DOUBLE_EQ(stats.component_mean[j], 0.0);
    EXPECT_DOUBLE_EQ(stats.component_sigma[j], 2.0);
  }
  EXPECT_DOUBLE_EQ(stats.sigma, 2.0);
}

}  // namespace
}  // namespace s3vcd::fp
