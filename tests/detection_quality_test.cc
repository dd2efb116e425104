// Detection quality as a failing test (paper Section V-D at CI scale): a
// stream embedding copies of referenced clips under the whole copy
// transform suite (the five Figure 4 families plus MPEG-style DCT, logo and
// picture-in-picture) is monitored against a 20k-record catalogue and
// against a catalogue at the 400k workload's depth, once with the paper's
// unfiltered statistical query (kAll) and once with the detector's default
// copy radius. Every copy must be found in both, in the stream and at every
// phase of the monitor's window grid. With the copy radius the
// false alarms must stay under the paper's target of one per hour; at kAll
// they may not exceed today's count. Two reduced paper corpora
// (ablation_voting's and fig10's) pin the (id, offset, nsim) of their kAll
// votes.

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"
#include "cbcd/detector.h"
#include "util/math.h"

namespace s3vcd::cbcd {
namespace {

constexpr double kFps = 25.0;
constexpr double kSigma = 15.0;
constexpr int kNsimThreshold = 8;
constexpr double kOffsetTolerance = 4.0;  // frames, for a correct report
// The paper's target: under one false alarm per hour of monitoring.
constexpr double kFalseAlarmsPerHourTarget = 1.0;
// The paper's unfiltered query misses that target on the 20k catalogue: a
// distractor-rich id reaches nsim 8 by chance about once a minute (bench/e2e
// monitor_20k reads 37.9 false alarms per hour), and the copy radius is
// what removes them. At kAll the test holds the count to what it is now;
// an a-contrario decision rule is the open item that would lift it.
constexpr int kAllFalseAlarmsNow[] = {4, 0};
constexpr int kClipsPerTransform = 2;

// The monitoring setup of Section V-D, as bench/e2e runs it.
DetectorOptions MonitorOptions(int depth, core::RefinementMode refinement) {
  DetectorOptions options;
  options.query.filter.alpha = 0.80;
  options.query.filter.depth = depth;
  if (refinement == core::RefinementMode::kAll) {
    options.query.refinement = core::RefinementMode::kAll;
  }
  options.vote.use_spatial_coherence = true;
  options.nsim_threshold = kNsimThreshold;
  return options;
}

StreamMonitor::Options WindowOptions() {
  StreamMonitor::Options options;
  options.window_keyframes = 16;
  options.window_overlap = 6;
  return options;
}

// Feeds `fps` (time codes in stream frames) to `monitor` key-frame by
// key-frame and appends its detections.
void Monitor(const std::vector<fp::LocalFingerprint>& fps,
             StreamMonitor* monitor, std::vector<Detection>* out) {
  size_t i = 0;
  while (i < fps.size()) {
    std::vector<fp::LocalFingerprint> keyframe;
    const uint32_t tc = fps[i].time_code;
    while (i < fps.size() && fps[i].time_code == tc) {
      keyframe.push_back(fps[i++]);
    }
    for (const Detection& d : monitor->PushKeyFrame(keyframe)) {
      out->push_back(d);
    }
  }
}

struct Copy {
  std::string label;
  uint32_t id;
  int start_frame;
  /// Its fingerprints in the stream: [first_fp, last_fp).
  size_t first_fp = 0;
  size_t last_fp = 0;
};

// The reference clips and the monitored stream, built once.
struct Stream {
  bench::Corpus corpus;
  std::vector<Copy> copies;
  std::vector<fp::LocalFingerprint> fps;
  double seconds = 0;
};

// kClipsPerTransform copies per transformation of the suite, each of a
// clip of its own, between unrelated filler segments of 100 to 200 frames.
// Segments are extracted one by one, as bench/e2e does.
const Stream& SharedStream() {
  static const Stream* stream = [] {
    auto* s = new Stream();
    const std::vector<bench::NamedTransform> suite =
        bench::CopyTransformSuite();
    const int clips = static_cast<int>(suite.size()) * kClipsPerTransform;
    s->corpus = bench::BuildCorpus(clips, 0, 7700);
    Rng rng(7701);
    int frame = 0;
    auto append = [&](const media::VideoSequence& video) {
      for (fp::LocalFingerprint lf : s->corpus.extractor.Extract(video)) {
        lf.time_code += static_cast<uint32_t>(frame);
        s->fps.push_back(lf);
      }
      frame += video.num_frames();
    };
    for (int c = 0; c < clips; ++c) {
      append(media::GenerateSyntheticVideo(bench::ClipConfig(
          770000 + c, static_cast<int>(rng.UniformInt(100, 200)))));
      const bench::NamedTransform& t = suite[c % suite.size()];
      Copy copy{t.name, static_cast<uint32_t>(c), frame};
      copy.first_fp = s->fps.size();
      append(t.chain.Apply(s->corpus.videos[c], &rng));
      copy.last_fp = s->fps.size();
      s->copies.push_back(copy);
    }
    append(media::GenerateSyntheticVideo(bench::ClipConfig(779999, 150)));
    s->seconds = frame / kFps;
    return s;
  }();
  return *stream;
}

// Whether a vote reports `copy` (right id, offset within tolerance).
bool Reports(const std::vector<Vote>& votes, const Copy& copy) {
  for (const Vote& v : votes) {
    if (v.id == copy.id &&
        std::abs(v.offset - copy.start_frame) <= kOffsetTolerance) {
      return true;
    }
  }
  return false;
}

// The phases of the monitor's window grid (16 key-frames, a new window
// every 10) at which no window reports `copy`. The stream places a copy at
// one phase; this tries all of them, voting windows of the copy's own
// key-frames, each searched once.
std::vector<int> PhasesMissing(const CopyDetector& detector,
                               const std::vector<fp::LocalFingerprint>& fps,
                               const Copy& copy) {
  std::vector<CandidateEntry> entries;
  std::vector<size_t> keyframe_begin;
  for (size_t i = copy.first_fp; i < copy.last_fp; ++i) {
    if (i == copy.first_fp || fps[i].time_code != fps[i - 1].time_code) {
      keyframe_begin.push_back(entries.size());
    }
    entries.push_back(detector.SearchOne(fps[i]));
  }
  keyframe_begin.push_back(entries.size());
  const StreamMonitor::Options window = WindowOptions();
  const int stride = window.window_keyframes - window.window_overlap;
  const int keyframes = static_cast<int>(keyframe_begin.size()) - 1;
  std::vector<int> missing;
  for (int phase = 0; phase < stride; ++phase) {
    bool reported = false;
    for (int start = -phase; start < keyframes && !reported;
         start += stride) {
      const size_t first = keyframe_begin[std::max(start, 0)];
      const size_t last = keyframe_begin[std::min(
          start + window.window_keyframes, keyframes)];
      const std::vector<CandidateEntry> in_window(entries.begin() + first,
                                                  entries.begin() + last);
      reported = Reports(ComputeVotes(in_window, detector.options().vote,
                                      detector.options().nsim_threshold),
                         copy);
    }
    if (!reported) {
      missing.push_back(phase);
    }
  }
  return missing;
}

struct Catalogue {
  const char* name;
  uint64_t records;
  int depth;
};

// A 20k-record catalogue at its own depth, and the 400k workload's depth
// over a quarter of its records.
constexpr Catalogue kCatalogues[] = {{"20k", 20000, 12},
                                     {"100k_depth16", 100000, 16}};

class DetectionQualityTest
    : public testing::TestWithParam<std::tuple<int, core::RefinementMode>> {
};

TEST_P(DetectionQualityTest, FindsEveryCopyWithoutFalseAlarms) {
  const Catalogue& catalogue = kCatalogues[std::get<0>(GetParam())];
  const core::RefinementMode refinement = std::get<1>(GetParam());
  const Stream& stream = SharedStream();
  const auto index = bench::RebuildIndexWithSize(
      stream.corpus, catalogue.records, catalogue.records);
  const core::GaussianDistortionModel model(kSigma);
  const CopyDetector detector(index.get(), &model,
                              MonitorOptions(catalogue.depth, refinement));
  StreamMonitor monitor(&detector, WindowOptions());
  std::vector<Detection> reports;
  Monitor(stream.fps, &monitor, &reports);
  for (const Detection& d : monitor.Flush()) {
    reports.push_back(d);
  }

  std::vector<bool> found(stream.copies.size(), false);
  int false_alarms = 0;
  for (const Detection& d : reports) {
    bool matched = false;
    for (size_t c = 0; c < stream.copies.size(); ++c) {
      if (d.id == stream.copies[c].id &&
          std::abs(d.offset - stream.copies[c].start_frame) <=
              kOffsetTolerance) {
        found[c] = true;
        matched = true;
      }
    }
    if (!matched) {
      ++false_alarms;
      std::printf("false alarm: id %u offset %.1f nsim %d\n", d.id, d.offset,
                  d.nsim);
    }
  }
  for (size_t c = 0; c < stream.copies.size(); ++c) {
    const Copy& copy = stream.copies[c];
    EXPECT_TRUE(found[c]) << "missed copy of id " << copy.id << " ("
                          << copy.label << ") at frame " << copy.start_frame;
    EXPECT_EQ(PhasesMissing(detector, stream.fps, copy), std::vector<int>{})
        << "window phases that miss the copy of id " << copy.id << " ("
        << copy.label << ")";
  }
  if (refinement == core::RefinementMode::kAll) {
    EXPECT_LE(false_alarms, kAllFalseAlarmsNow[std::get<0>(GetParam())]);
  } else {
    EXPECT_LT(false_alarms * 3600.0 / stream.seconds,
              kFalseAlarmsPerHourTarget)
        << false_alarms << " false alarms in " << stream.seconds << " s";
  }
}

INSTANTIATE_TEST_SUITE_P(
    TransformSuite, DetectionQualityTest,
    testing::Combine(testing::Values(0, 1),
                     testing::Values(core::RefinementMode::kAll,
                                     core::RefinementMode::
                                         kNormalizedRadiusFilter)),
    [](const testing::TestParamInfo<DetectionQualityTest::ParamType>& info) {
      return std::string(kCatalogues[std::get<0>(info.param)].name) +
             (std::get<1>(info.param) == core::RefinementMode::kAll
                  ? "_kAll"
                  : "_CopyRadius");
    });

// The default query is the copy radius in sigma units of the model.
TEST(DetectionQualityDefaultsTest, DefaultQueryIsTheCopyRadius) {
  const DetectorOptions options;
  EXPECT_EQ(options.query.refinement,
            core::RefinementMode::kNormalizedRadiusFilter);
  EXPECT_EQ(options.query.radius, kCopyRadiusSigmas);
  EXPECT_EQ(core::QueryOptions().refinement, core::RefinementMode::kAll);
}

// --- Pinned kAll votes on reduced paper corpora ---------------------------

struct PinnedVote {
  uint32_t id;
  double offset;
  int nsim;
};

void ExpectVotes(const std::vector<Detection>& got,
                 const std::vector<PinnedVote>& want, const std::string& what) {
  std::string listing;
  for (const Detection& d : got) {
    char line[96];
    std::snprintf(line, sizeof(line), "{%u, %.4f, %d},\n", d.id, d.offset,
                  d.nsim);
    listing += line;
  }
  ASSERT_EQ(got.size(), want.size()) << what << ":\n" << listing;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " vote " << i << ":\n"
                                     << listing;
    EXPECT_NEAR(got[i].offset, want[i].offset, 1e-4)
        << what << " vote " << i;
    EXPECT_EQ(got[i].nsim, want[i].nsim) << what << " vote " << i;
  }
}

// bench/ablation_voting's corpus and candidates at 1/10 of its size: the
// three strongest votes of each candidate clip under each vote variant.
TEST(PinnedVotesTest, AblationVotingCorpusAtKAll) {
  const bench::Corpus corpus = bench::BuildCorpus(10, 30000, 11100);
  const core::GaussianDistortionModel model(kSigma);
  Rng rng(666);
  std::vector<std::vector<fp::LocalFingerprint>> candidates;
  for (int c = 0; c < 3; ++c) {
    const media::TransformChain chain =
        (c % 3 == 0)   ? media::TransformChain::Gamma(1.3)
        : (c % 3 == 1) ? media::TransformChain::Noise(6.0)
                       : media::TransformChain::Contrast(1.4);
    candidates.push_back(
        corpus.extractor.Extract(chain.Apply(corpus.videos[c], &rng)));
  }
  candidates.push_back(corpus.extractor.Extract(
      media::GenerateSyntheticVideo(bench::ClipConfig(880000))));

  VoteOptions spatial;
  spatial.use_spatial_coherence = true;
  VoteOptions irls;
  irls.refine_offset = true;
  const std::map<std::string, VoteOptions> variants = {
      {"plain_temporal", VoteOptions{}},
      {"plus_spatial", spatial},
      {"plus_irls", irls}};
  const std::map<std::string, std::vector<PinnedVote>> want = {
      {"plain_temporal",
       {{0, 0, 199}, {4, -10, 8}, {9, -33, 7},
        {1, -1, 67}, {2, -4, 9}, {8, -1, 7},
        {2, 0, 279}, {7, 8, 13}, {0, 11, 9},
        {7, -72, 8}, {5, 21, 7}, {1, -26, 7}}},
      {"plus_spatial",
       {{0, 0, 196}, {5, -4, 3}, {6, 53, 2},
        {1, -1, 60}, {0, -82, 2}, {5, 84, 2},
        {2, 0, 273}, {1048581, -263014, 3}, {1048594, -243967, 3},
        {3, -18, 2}, {5, 21, 2}, {0, 155, 2}}},
      {"plus_irls",
       {{0, 0.1012, 199}, {4, -10.6492, 8}, {5, -3.0227, 7},
        {1, -0.8018, 67}, {2, -4.9577, 8}, {8, -0.3480, 7},
        {2, 0.1080, 279}, {7, 8.7634, 11}, {0, 11.6970, 9},
        {5, 21.4508, 7}, {1, -25.6585, 7}, {3, -17.5215, 6}}},
  };
  for (const auto& [name, vote] : variants) {
    DetectorOptions options;
    options.query.filter.alpha = 0.85;
    options.query.filter.depth = 16;
    options.query.refinement = core::RefinementMode::kAll;
    options.vote = vote;
    options.nsim_threshold = 0;
    const CopyDetector detector(corpus.index.get(), &model, options);
    std::vector<Detection> top;
    for (const auto& fps : candidates) {
      const std::vector<Detection> detections = detector.DetectClip(fps);
      for (size_t i = 0; i < 3 && i < detections.size(); ++i) {
        top.push_back(detections[i]);
      }
    }
    ExpectVotes(top, want.at(name), name);
  }
}

// bench/fig10_tv_monitoring's corpus and stream over a 40k-record
// catalogue: every report of the monitor.
TEST(PinnedVotesTest, Fig10CorpusAtKAll) {
  const bench::Corpus corpus = bench::BuildCorpus(8, 40000, 5100);
  const core::GaussianDistortionModel model(kSigma);
  Rng rng(560);
  media::VideoSequence stream;
  stream.fps = kFps;
  auto append = [&](const media::VideoSequence& clip) {
    stream.frames.insert(stream.frames.end(), clip.frames.begin(),
                         clip.frames.end());
  };
  auto filler = [&](uint64_t seed, int frames) {
    append(media::GenerateSyntheticVideo(
        bench::ClipConfig(700000 + seed, frames)));
  };
  filler(1, 150);
  append(corpus.videos[0]);
  filler(2, 120);
  append(media::TransformChain::Contrast(1.5).Apply(corpus.videos[1], &rng));
  filler(3, 130);
  {
    media::TransformChain chain = media::TransformChain::Gamma(1.3);
    chain.Then(media::TransformType::kNoise, 8.0);
    append(chain.Apply(corpus.videos[2], &rng));
  }
  filler(4, 120);
  append(
      media::TransformChain::VerticalShift(10).Apply(corpus.videos[3], &rng));
  filler(5, 150);

  DetectorOptions options;
  options.query.filter.alpha = 0.80;
  options.query.filter.depth = std::max(
      12, Log2Exact(NextPowerOfTwo(corpus.index->database().size())) - 3);
  options.query.refinement = core::RefinementMode::kAll;
  options.vote.use_spatial_coherence = true;
  options.nsim_threshold = kNsimThreshold;
  const CopyDetector detector(corpus.index.get(), &model, options);
  StreamMonitor monitor(&detector, WindowOptions());
  std::vector<Detection> reports;
  Monitor(corpus.extractor.Extract(stream), &monitor, &reports);
  for (const Detection& d : monitor.Flush()) {
    reports.push_back(d);
  }
  ExpectVotes(reports,
              {{0, 150, 98}, {0, 150, 234}, {0, 150, 58},
               {1, 520, 51}, {1, 520, 210}, {1, 520, 189}, {1, 520, 31},
               {2, 899, 14}, {2, 900, 47}, {2, 901, 27},
               {3, 1270, 121}, {3, 1270, 179}, {3, 1270, 40}},
              "fig10");
}

}  // namespace
}  // namespace s3vcd::cbcd
