// Derives the copy radius rho of the CBCD detector (cbcd::kCopyRadiusSigmas,
// an extension of the paper; DESIGN.md "Copy radius"). The paper's
// statistical query keeps every record of the region V_alpha; the detector
// additionally drops the matches farther than rho sigma from the query. The
// radius is chosen at video level, not per pair: a copy is found when one
// voting window of it keeps nsim >= nsim_threshold coherent candidates, so
// it suffices that
//
//   P[Bin(n, q(rho)) >= nsim_threshold] >= 1 - delta
//
// where n is the smallest nsim a copy reaches at alpha = 0.8 without a
// radius, in its best 16-key-frame window of the worst window phase, and
// q(r) = P[||Delta S|| <= r sigma | the query selects the reference] is
// the per-pair retention of a transformation, measured with the simulated
// perfect detector (the protocol of Figure 1). The retention is
// conditioned on selection because the n candidates are all selected
// pairs; the unconditioned retention q_all, the pairs the region V_alpha
// misses included, is printed beside it. Both are measured over the copy
// transform suite at depths 12 and 16; rho is the largest
// per-transformation answer on a half-sigma grid. The last table re-votes
// every copy with its matches cut at r sigma: a check of the binomial
// model, not an input to it. tail_rho_t and tail_below are the binomial
// tail at rho_t and one grid step below it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "fingerprint/distortion.h"
#include "util/table.h"

namespace s3vcd::bench {
namespace {

// The monitoring setup of Section V-D (bench/e2e, fig10_tv_monitoring).
constexpr double kSigma = 15.0;
constexpr double kAlpha = 0.8;
constexpr int kNsimThreshold = 8;
constexpr int kWindowKeyframes = 16;
constexpr int kWindowStride = 10;  // 16-key-frame windows overlapping by 6
// The depths of the 20k and 400k monitoring catalogues.
constexpr int kDepths[] = {12, 16};
// Probability that a copy's best window loses its nsim under the radius.
constexpr double kDelta = 1e-3;
// The radius grid, in sigma units.
constexpr double kGridLo = 4.0;
constexpr double kGridHi = 16.0;
constexpr double kGridStep = 0.5;

// P[Bin(n, q) >= k].
double BinomialTailAtLeast(int n, double q, int k) {
  if (k <= 0) {
    return 1;
  }
  if (q <= 0 || n < k) {
    return 0;
  }
  if (q >= 1) {
    return 1;
  }
  double below = 0;
  for (int i = 0; i < k; ++i) {
    below += std::exp(std::lgamma(n + 1.0) - std::lgamma(i + 1.0) -
                      std::lgamma(n - i + 1.0) + i * std::log(q) +
                      (n - i) * std::log1p(-q));
  }
  return std::max(0.0, 1.0 - below);
}

// The nsim of `id` at offset ~0 over the key-frames [first, last) of a
// copy; a match is kept when `keep` says so.
template <typename Keep>
int CopyNsim(const std::vector<cbcd::CandidateEntry>& entries,
             const std::vector<size_t>& keyframe_begin, size_t first,
             size_t last, uint32_t id, const cbcd::VoteOptions& vote,
             Keep keep) {
  std::vector<cbcd::CandidateEntry> window(
      entries.begin() + keyframe_begin[first],
      entries.begin() + keyframe_begin[last]);
  for (cbcd::CandidateEntry& entry : window) {
    std::erase_if(entry.matches,
                  [&](const core::Match& m) { return !keep(m); });
  }
  for (const cbcd::Vote& v : cbcd::ComputeVotes(window, vote)) {
    if (v.id == id && std::abs(v.offset) <= vote.tolerance) {
      return v.nsim;
    }
  }
  return 0;
}

// The smallest, over window phases, of the largest nsim a window of the
// copy reaches.
template <typename Keep>
int WorstPhaseNsim(const std::vector<cbcd::CandidateEntry>& entries,
                   const std::vector<size_t>& keyframe_begin, uint32_t id,
                   const cbcd::VoteOptions& vote, Keep keep) {
  const int keyframes = static_cast<int>(keyframe_begin.size()) - 1;
  int worst = -1;
  for (int phase = 0; phase < kWindowStride; ++phase) {
    int best = 0;
    for (int start = -phase; start < keyframes; start += kWindowStride) {
      const size_t first = static_cast<size_t>(std::max(start, 0));
      const size_t last = static_cast<size_t>(
          std::min(start + kWindowKeyframes, keyframes));
      best = std::max(best, CopyNsim(entries, keyframe_begin, first, last, id,
                                     vote, keep));
    }
    worst = worst < 0 ? best : std::min(worst, best);
  }
  return worst;
}

int Main() {
  PrintHeader("derive_copy_radius",
              "copy radius rho: per-pair retention x matched points per "
              "window");
  const int kClips = static_cast<int>(Scaled(12));
  const core::GaussianDistortionModel model(kSigma);
  const fp::FingerprintExtractor extractor;

  // The reference clips alone: a selection does not depend on what the
  // index holds, and distractors add no coherent vote to a copy's id.
  std::vector<media::VideoSequence> videos;
  core::DatabaseBuilder builder;
  for (int c = 0; c < kClips; ++c) {
    videos.push_back(media::GenerateSyntheticVideo(ClipConfig(32000 + c)));
    builder.AddVideo(static_cast<uint32_t>(c), extractor.Extract(videos[c]));
  }
  const core::S3Index index(builder.Build());

  std::vector<double> grid;
  for (double r = kGridLo; r <= kGridHi + 1e-9; r += kGridStep) {
    grid.push_back(r);
  }

  cbcd::VoteOptions vote;
  vote.use_spatial_coherence = true;
  Table table({"transform", "pairs", "sigma_fit", "selected", "q_all_8",
               "q_6", "q_7", "q_8", "q_9", "q_10", "n_min", "rho_t",
               "tail_rho_t", "tail_below"});
  Table check({"transform", "nsim_kall_min", "nsim_6", "nsim_7", "nsim_8",
               "nsim_9", "nsim_10"});
  double rho = kGridLo;
  std::string binding;
  Rng rng(20260);
  for (const NamedTransform& t : CopyTransformSuite()) {
    // ||Delta S|| / sigma of every pair, and of the pairs whose distorted
    // query selects the reference, once per depth.
    std::vector<double> all;
    std::vector<double> selected;
    std::vector<fp::DistortionSample> samples;
    int n_min = -1;
    std::map<double, int> kept_min;
    for (int c = 0; c < kClips; ++c) {
      const std::vector<fp::DistortionSample> clip_samples =
          fp::CollectDistortionSamples(videos[c], t.chain,
                                       fp::PerfectDetectorOptions{}, &rng);
      samples.insert(samples.end(), clip_samples.begin(), clip_samples.end());
      const std::vector<fp::LocalFingerprint> fps =
          extractor.Extract(t.chain.Apply(videos[c], &rng));
      std::vector<size_t> keyframe_begin;
      for (size_t i = 0; i < fps.size(); ++i) {
        if (i == 0 || fps[i].time_code != fps[i - 1].time_code) {
          keyframe_begin.push_back(i);
        }
      }
      keyframe_begin.push_back(fps.size());
      for (const int depth : kDepths) {
        cbcd::DetectorOptions options;
        options.query.filter.alpha = kAlpha;
        options.query.filter.depth = depth;
        options.query.refinement = core::RefinementMode::kAll;
        const cbcd::CopyDetector detector(&index, &model, options);
        for (const fp::DistortionSample& sample : clip_samples) {
          // The reference is the match at its exact distance (the
          // fig3/fig5 idiom; kAll reports byte-space distances).
          const double d = fp::Distance(sample.reference, sample.distorted);
          all.push_back(d / kSigma);
          for (const core::Match& m :
               index.StatQuery(sample.distorted, model, options.query)
                   .matches) {
            if (std::abs(m.distance - d) < 1e-3) {
              selected.push_back(d / kSigma);
              break;
            }
          }
        }
        std::vector<cbcd::CandidateEntry> entries;
        for (const fp::LocalFingerprint& lf : fps) {
          entries.push_back(detector.SearchOne(lf));
        }
        const uint32_t id = static_cast<uint32_t>(c);
        const int n = WorstPhaseNsim(entries, keyframe_begin, id, vote,
                                     [](const core::Match&) { return true; });
        n_min = n_min < 0 ? n : std::min(n_min, n);
        for (const double r : {6.0, 7.0, 8.0, 9.0, 10.0}) {
          const int kept = WorstPhaseNsim(
              entries, keyframe_begin, id, vote, [&](const core::Match& m) {
                return m.distance <= r * kSigma;
              });
          auto [it, fresh] = kept_min.emplace(r, kept);
          if (!fresh) {
            it->second = std::min(it->second, kept);
          }
        }
      }
    }
    std::sort(all.begin(), all.end());
    std::sort(selected.begin(), selected.end());
    auto fraction_within = [](const std::vector<double>& sorted, double r) {
      return static_cast<double>(
                 std::upper_bound(sorted.begin(), sorted.end(), r) -
                 sorted.begin()) /
             static_cast<double>(std::max<size_t>(sorted.size(), 1));
    };
    auto q = [&](double r) { return fraction_within(selected, r); };
    double rho_t = kGridHi;
    for (const double r : grid) {
      if (BinomialTailAtLeast(n_min, q(r), kNsimThreshold) >= 1 - kDelta) {
        rho_t = r;
        break;
      }
    }
    if (rho_t > rho) {
      rho = rho_t;
      binding = t.name;
    }
    table.AddRow()
        .Add(t.name)
        .Add(static_cast<uint64_t>(samples.size()))
        .Add(fp::ComputeDistortionStats(samples).sigma, 4)
        .Add(static_cast<double>(selected.size()) /
                 static_cast<double>(std::max<size_t>(all.size(), 1)),
             3)
        .Add(fraction_within(all, 8), 3)
        .Add(q(6), 3)
        .Add(q(7), 3)
        .Add(q(8), 3)
        .Add(q(9), 3)
        .Add(q(10), 3)
        .Add(n_min)
        .Add(rho_t, 3)
        .Add(BinomialTailAtLeast(n_min, q(rho_t), kNsimThreshold), 6)
        .Add(BinomialTailAtLeast(n_min, q(rho_t - kGridStep), kNsimThreshold),
             6);
    check.AddRow()
        .Add(t.name)
        .Add(n_min)
        .Add(kept_min[6.0])
        .Add(kept_min[7.0])
        .Add(kept_min[8.0])
        .Add(kept_min[9.0])
        .Add(kept_min[10.0]);
  }
  std::printf("model sigma %.1f, alpha %.2f, nsim_threshold %d, delta %g, "
              "%d clips per transformation, depths 12 and 16\n",
              kSigma, kAlpha, kNsimThreshold, kDelta, kClips);
  table.Print("copy_radius_derivation");
  std::printf("rho = %.1f sigma (bound by %s); cbcd::kCopyRadiusSigmas = "
              "%.1f\n",
              rho, binding.c_str(), cbcd::kCopyRadiusSigmas);
  check.Print("copy_radius_check");
  std::printf(
      "check: worst-phase nsim of the weakest copy when its kAll matches "
      "are cut at r sigma (nsim_r); the derivation holds where nsim_rho "
      ">= %d\n",
      kNsimThreshold);
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main() { return s3vcd::bench::Main(); }
