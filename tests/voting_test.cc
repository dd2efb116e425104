#include "cbcd/voting.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "cbcd/tukey.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace s3vcd::cbcd {
namespace {

TEST(TukeyRhoTest, ShapeProperties) {
  const double c = 10.0;
  EXPECT_DOUBLE_EQ(TukeyRho(0, c), 0.0);
  // Saturation at |u| >= c.
  EXPECT_DOUBLE_EQ(TukeyRho(c, c), c * c / 6.0);
  EXPECT_DOUBLE_EQ(TukeyRho(5 * c, c), c * c / 6.0);
  EXPECT_DOUBLE_EQ(TukeyRho(-5 * c, c), c * c / 6.0);
  // Symmetric and monotone non-decreasing in |u|.
  for (double u = 0; u < 2 * c; u += 0.5) {
    EXPECT_DOUBLE_EQ(TukeyRho(u, c), TukeyRho(-u, c));
    EXPECT_LE(TukeyRho(u, c), TukeyRho(u + 0.5, c) + 1e-12);
  }
  // Quadratic-like near zero: rho(u) ~ u^2/2 for small u.
  EXPECT_NEAR(TukeyRho(0.1, c), 0.005, 0.0005);
}

TEST(TukeyWeightTest, ZeroBeyondCAndOneAtZero) {
  const double c = 4.0;
  EXPECT_DOUBLE_EQ(TukeyWeight(0, c), 1.0);
  EXPECT_DOUBLE_EQ(TukeyWeight(c, c), 0.0);
  EXPECT_DOUBLE_EQ(TukeyWeight(c + 1, c), 0.0);
  EXPECT_GT(TukeyWeight(1, c), TukeyWeight(2, c));
}

// Helper: an entry with matches to the given (id, tc) pairs.
CandidateEntry MakeEntry(uint32_t candidate_tc,
                         std::vector<std::pair<uint32_t, uint32_t>> hits,
                         float x = 0, float y = 0) {
  CandidateEntry entry;
  entry.candidate_time_code = candidate_tc;
  entry.x = x;
  entry.y = y;
  for (const auto& [id, tc] : hits) {
    core::Match m;
    m.id = id;
    m.time_code = tc;
    entry.matches.push_back(m);
  }
  return entry;
}

TEST(ComputeVotesTest, RecoversExactOffset) {
  // Candidate clip aligned to reference id 5 with offset b = 100.
  std::vector<CandidateEntry> entries;
  for (uint32_t tc : {110u, 120u, 135u, 150u, 170u}) {
    entries.push_back(MakeEntry(tc, {{5, tc - 100}}));
  }
  const auto votes = ComputeVotes(entries, VoteOptions{});
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0].id, 5u);
  EXPECT_DOUBLE_EQ(votes[0].offset, 100.0);
  EXPECT_EQ(votes[0].nsim, 5);
}

TEST(ComputeVotesTest, RobustToOutlierMatches) {
  // 6 coherent matches at offset 50, plus wild outliers for the same id.
  Rng rng(1);
  std::vector<CandidateEntry> entries;
  for (uint32_t tc = 60; tc <= 160; tc += 20) {
    auto entry = MakeEntry(tc, {{9, tc - 50}});
    // Outlier matches of the same id at random time codes.
    for (int o = 0; o < 5; ++o) {
      core::Match m;
      m.id = 9;
      m.time_code = static_cast<uint32_t>(rng.UniformInt(5000, 90000));
      entry.matches.push_back(m);
    }
    entries.push_back(entry);
  }
  const auto votes = ComputeVotes(entries, VoteOptions{});
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0].id, 9u);
  EXPECT_NEAR(votes[0].offset, 50.0, 1.0);
  EXPECT_EQ(votes[0].nsim, 6);
}

TEST(ComputeVotesTest, SeparatesMultipleIds) {
  // id 1 coherent over 5 key-frames; id 2 appears incoherently.
  std::vector<CandidateEntry> entries;
  uint32_t scatter = 7;
  for (uint32_t tc : {10u, 20u, 30u, 40u, 50u}) {
    entries.push_back(MakeEntry(tc, {{1, tc + 500}, {2, scatter}}));
    scatter = scatter * 31 % 1000;  // incoherent time codes
  }
  const auto votes = ComputeVotes(entries, VoteOptions{});
  ASSERT_EQ(votes.size(), 2u);
  EXPECT_EQ(votes[0].id, 1u) << "coherent id must rank first";
  EXPECT_EQ(votes[0].nsim, 5);
  EXPECT_NEAR(votes[0].offset, -500.0, 1e-9);
  EXPECT_LT(votes[1].nsim, 3);
}

TEST(ComputeVotesTest, ToleranceControlsNsim) {
  // Matches jittered by +-2 frames around offset 0.
  std::vector<CandidateEntry> entries;
  const int jitter[] = {0, 2, -2, 1, -1, 0};
  for (int j = 0; j < 6; ++j) {
    const uint32_t tc = 100 + 10 * j;
    entries.push_back(
        MakeEntry(tc, {{3, static_cast<uint32_t>(tc + jitter[j])}}));
  }
  VoteOptions tight;
  tight.tolerance = 0.5;
  VoteOptions loose;
  loose.tolerance = 3.0;
  const auto tight_votes = ComputeVotes(entries, tight);
  const auto loose_votes = ComputeVotes(entries, loose);
  ASSERT_EQ(tight_votes.size(), 1u);
  ASSERT_EQ(loose_votes.size(), 1u);
  EXPECT_EQ(loose_votes[0].nsim, 6);
  EXPECT_LT(tight_votes[0].nsim, loose_votes[0].nsim);
}

TEST(ComputeVotesTest, EmptyBufferYieldsNoVotes) {
  EXPECT_TRUE(ComputeVotes({}, VoteOptions{}).empty());
  std::vector<CandidateEntry> no_matches = {MakeEntry(5, {})};
  EXPECT_TRUE(ComputeVotes(no_matches, VoteOptions{}).empty());
}

TEST(ComputeVotesTest, NegativeOffsetsSupported) {
  // Candidate starts *before* the reference time codes (b < 0 means the
  // candidate time base lags the reference).
  std::vector<CandidateEntry> entries;
  for (uint32_t tc : {5u, 15u, 25u}) {
    entries.push_back(MakeEntry(tc, {{4, tc + 1000}}));
  }
  const auto votes = ComputeVotes(entries, VoteOptions{});
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_DOUBLE_EQ(votes[0].offset, -1000.0);
  EXPECT_EQ(votes[0].nsim, 3);
}

TEST(ComputeVotesTest, SpatialCoherenceFiltersScatteredPoints) {
  // All matches temporally coherent, but 3 of 8 interest points have a
  // displacement inconsistent with the (zero) dominant displacement.
  std::vector<CandidateEntry> entries;
  for (int j = 0; j < 8; ++j) {
    const uint32_t tc = 100 + 10 * j;
    CandidateEntry entry;
    entry.candidate_time_code = tc;
    entry.x = 50;
    entry.y = 40;
    core::Match m;
    m.id = 11;
    m.time_code = tc;
    if (j % 3 != 1) {
      m.x = 50;  // consistent: zero displacement (5 of 8 points)
      m.y = 40;
    } else {
      m.x = 50 + 80.0f * (j % 3 + 1);  // scattered (j = 1, 4, 7)
      m.y = 40 - 60.0f * (j % 5 + 1);
    }
    entry.matches.push_back(m);
    entries.push_back(entry);
  }
  VoteOptions plain;
  VoteOptions spatial;
  spatial.use_spatial_coherence = true;
  spatial.spatial_tolerance = 10.0;
  const auto plain_votes = ComputeVotes(entries, plain);
  const auto spatial_votes = ComputeVotes(entries, spatial);
  ASSERT_EQ(plain_votes.size(), 1u);
  ASSERT_EQ(spatial_votes.size(), 1u);
  EXPECT_EQ(plain_votes[0].nsim, 8);
  EXPECT_EQ(spatial_votes[0].nsim, 5)
      << "spatially scattered matches must not count";
}

TEST(ComputeVotesTest, VotesSortedByNsim) {
  std::vector<CandidateEntry> entries;
  for (uint32_t tc : {10u, 20u, 30u, 40u}) {
    std::vector<std::pair<uint32_t, uint32_t>> hits = {{1, tc}};
    if (tc <= 20) {
      hits.push_back({2, tc + 7});
    }
    entries.push_back(MakeEntry(tc, hits));
  }
  const auto votes = ComputeVotes(entries, VoteOptions{});
  ASSERT_EQ(votes.size(), 2u);
  EXPECT_EQ(votes[0].id, 1u);
  EXPECT_EQ(votes[0].nsim, 4);
  EXPECT_EQ(votes[1].id, 2u);
  EXPECT_EQ(votes[1].nsim, 2);
}


TEST(ComputeVotesTest, IrlsRefinementRecoversFractionalOffset) {
  // Matches jittered symmetrically around a non-integer offset 99.5: the
  // discrete search can only pick one of the observed integer offsets, the
  // IRLS refinement converges to the underlying value.
  std::vector<CandidateEntry> entries;
  const int jitter[] = {0, 1, 0, 1, 0, 1, 0, 1};
  for (int j = 0; j < 8; ++j) {
    const uint32_t tc = 200 + 10 * j;
    entries.push_back(
        MakeEntry(tc, {{6, static_cast<uint32_t>(tc - 99 - jitter[j])}}));
  }
  VoteOptions discrete;
  VoteOptions refined;
  refined.refine_offset = true;
  const auto a = ComputeVotes(entries, discrete);
  const auto b = ComputeVotes(entries, refined);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  // Discrete estimate lands on 99 or 100; the refined one on ~99.5.
  EXPECT_TRUE(a[0].offset == 99.0 || a[0].offset == 100.0);
  EXPECT_NEAR(b[0].offset, 99.5, 0.05);
  EXPECT_EQ(b[0].nsim, 8);
}

TEST(ComputeVotesTest, IrlsIgnoresOutliers) {
  // Coherent matches at offset 40 plus temporally incoherent outliers; the
  // refined offset must not be dragged toward them (Tukey weights vanish
  // beyond c).
  std::vector<CandidateEntry> entries;
  uint32_t scatter = 311;
  for (uint32_t tc : {100u, 110u, 120u, 130u, 140u}) {
    entries.push_back(MakeEntry(tc, {{8, tc - 40}, {8, tc + scatter}}));
    scatter = scatter * 57 % 9001;
  }
  VoteOptions options;
  options.refine_offset = true;
  const auto votes = ComputeVotes(entries, options);
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_NEAR(votes[0].offset, 40.0, 0.01);
}

TEST(ComputeVotesTest, TiedVotesComeOutInIdOrder) {
  // Ids 9 and 4 carry identical evidence; 9 is listed first in every entry.
  std::vector<CandidateEntry> entries;
  for (uint32_t tc : {10u, 20u, 30u}) {
    entries.push_back(MakeEntry(tc, {{9, tc + 40}, {4, tc + 40}}));
  }
  const auto votes = ComputeVotes(entries, VoteOptions{});
  ASSERT_EQ(votes.size(), 2u);
  EXPECT_EQ(votes[0].cost, votes[1].cost);
  EXPECT_EQ(votes[0].nsim, votes[1].nsim);
  EXPECT_EQ(votes[0].id, 4u);
  EXPECT_EQ(votes[1].id, 9u);
}

TEST(ComputeVotesTest, ExactlyTiedOffsetsGoToTheSmallest) {
  // Offsets 0, 1, 1000 and 1001 all cost 2 rho(c) + rho(1), with the
  // residuals falling on different candidates; the smallest must win.
  VoteOptions options;
  options.tukey_c = 7.5;
  const std::vector<CandidateEntry> entries = {
      MakeEntry(2000, {{2, 2000}}), MakeEntry(2010, {{2, 2009}}),
      MakeEntry(2020, {{2, 1020}}), MakeEntry(2030, {{2, 1029}})};
  const auto votes = ComputeVotes(entries, options);
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0].offset, 0.0);
  EXPECT_EQ(votes[0].nsim, 2);
}

// The exhaustive vote, kept as the oracle of ComputeVotes: the window is
// regrouped per id and per candidate fingerprint, each candidate keeps its
// reference time codes sorted, and eq. (2) is evaluated at every distinct
// offset tc'_j - tc_jk with one lower_bound per candidate.
struct OracleCandidate {
  uint32_t candidate_tc = 0;
  float x = 0;
  float y = 0;
  std::vector<const core::Match*> matches;
  std::vector<double> sorted_tcs;
};
using OracleEvidence = std::vector<OracleCandidate>;

std::map<uint32_t, OracleEvidence> OracleRegroup(
    const std::vector<CandidateEntry>& entries) {
  std::map<uint32_t, OracleEvidence> by_id;
  for (const CandidateEntry& entry : entries) {
    std::map<uint32_t, std::vector<const core::Match*>> per_id;
    for (const core::Match& m : entry.matches) {
      per_id[m.id].push_back(&m);
    }
    for (auto& [id, matches] : per_id) {
      OracleCandidate cand;
      cand.candidate_tc = entry.candidate_time_code;
      cand.x = entry.x;
      cand.y = entry.y;
      for (const core::Match* m : matches) {
        cand.sorted_tcs.push_back(static_cast<double>(m->time_code));
      }
      std::sort(cand.sorted_tcs.begin(), cand.sorted_tcs.end());
      cand.matches = std::move(matches);
      by_id[id].push_back(std::move(cand));
    }
  }
  return by_id;
}

double OracleCost(const OracleEvidence& evidence, double b, double c) {
  double cost = 0;
  for (const OracleCandidate& cand : evidence) {
    const double target = cand.candidate_tc - b;
    const auto& tcs = cand.sorted_tcs;
    const auto it = std::lower_bound(tcs.begin(), tcs.end(), target);
    double best = std::numeric_limits<double>::infinity();
    if (it != tcs.end()) {
      best = *it - target;
    }
    if (it != tcs.begin()) {
      best = std::min(best, target - *(it - 1));
    }
    cost += TukeyRho(best, c);
  }
  return cost;
}

struct OracleVote {
  Vote vote;
  /// Minimum of eq. (2) over the distinct offsets, and the least cost at
  /// any other offset (infinity when there is none).
  double min_cost = 0;
  double runner_up_cost = std::numeric_limits<double>::infinity();
};

OracleVote OracleVoteFor(uint32_t id, const OracleEvidence& evidence,
                         const VoteOptions& options) {
  const double c = options.tukey_c;
  std::vector<double> offsets;
  for (const OracleCandidate& cand : evidence) {
    for (double tc : cand.sorted_tcs) {
      offsets.push_back(cand.candidate_tc - tc);
    }
  }
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  OracleVote out;
  out.vote.id = id;
  double best_b = offsets.front();
  double best_cost = std::numeric_limits<double>::infinity();
  for (double b : offsets) {
    const double cost = OracleCost(evidence, b, c);
    if (cost < best_cost) {
      out.runner_up_cost = best_cost;
      best_cost = cost;
      best_b = b;
    } else {
      out.runner_up_cost = std::min(out.runner_up_cost, cost);
    }
  }
  out.min_cost = best_cost;

  if (options.refine_offset) {
    for (int iter = 0; iter < options.irls_iterations; ++iter) {
      double weighted_sum = 0;
      double weight_total = 0;
      for (const OracleCandidate& cand : evidence) {
        const double target = cand.candidate_tc - best_b;
        const auto it = std::lower_bound(cand.sorted_tcs.begin(),
                                         cand.sorted_tcs.end(), target);
        double best_tc = 0;
        double best_abs = std::numeric_limits<double>::infinity();
        if (it != cand.sorted_tcs.end()) {
          best_tc = *it;
          best_abs = std::abs(*it - target);
        }
        if (it != cand.sorted_tcs.begin() &&
            std::abs(*(it - 1) - target) < best_abs) {
          best_tc = *(it - 1);
        }
        const double residual = cand.candidate_tc - (best_tc + best_b);
        const double w = TukeyWeight(residual, c);
        weighted_sum += w * (cand.candidate_tc - best_tc);
        weight_total += w;
      }
      if (weight_total <= 0) {
        break;
      }
      const double next = weighted_sum / weight_total;
      const bool converged = std::abs(next - best_b) < 1e-6;
      best_b = next;
      if (converged) {
        break;
      }
    }
    best_cost = OracleCost(evidence, best_b, c);
  }

  std::vector<std::pair<double, double>> displacements;
  for (const OracleCandidate& cand : evidence) {
    const core::Match* best_match = nullptr;
    double best_abs = options.tolerance;
    for (const core::Match* m : cand.matches) {
      const double residual =
          static_cast<double>(cand.candidate_tc) -
          (static_cast<double>(m->time_code) + best_b);
      if (std::abs(residual) <= best_abs) {
        best_abs = std::abs(residual);
        best_match = m;
      }
    }
    if (best_match != nullptr) {
      displacements.emplace_back(cand.x - best_match->x,
                                 cand.y - best_match->y);
    }
  }
  int nsim = static_cast<int>(displacements.size());
  if (options.use_spatial_coherence && !displacements.empty()) {
    auto median_of = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      const size_t n = v.size();
      return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    };
    std::vector<double> dx;
    std::vector<double> dy;
    for (const auto& [a, b] : displacements) {
      dx.push_back(a);
      dy.push_back(b);
    }
    const double mx = median_of(dx);
    const double my = median_of(dy);
    nsim = 0;
    for (const auto& [a, b] : displacements) {
      if (std::hypot(a - mx, b - my) <= options.spatial_tolerance) {
        ++nsim;
      }
    }
  }
  out.vote.offset = best_b;
  out.vote.nsim = nsim;
  out.vote.cost = best_cost;
  return out;
}

bool WithinRelative(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(1.0, std::abs(b));
}

TEST(ComputeVotesTest, FindsTheMinimumATopBinsHistogramMisses) {
  // id 7 is coherent at offset 300 over 6 candidates (one match each).
  // Eight decoy candidates each hold 20 matches at one far offset, and 300
  // scattered matches add singleton offsets. A histogram of the offsets at
  // bin width c that keeps only its 8 best-supported bins keeps the decoys
  // (20 pairs per bin) and drops the true bin (6 pairs), yet a decoy
  // explains one candidate and the true offset six.
  std::vector<CandidateEntry> entries;
  for (uint32_t j = 0; j < 6; ++j) {
    const uint32_t tc = 1000 + 10 * j;
    entries.push_back(MakeEntry(tc, {{7, tc - 300}}));
  }
  for (uint32_t k = 0; k < 8; ++k) {
    const uint32_t tc = 20000 + 10 * k;
    std::vector<std::pair<uint32_t, uint32_t>> hits(
        20, {7, tc - (5000 + 100 * k)});
    entries.push_back(MakeEntry(tc, hits));
  }
  for (uint32_t s = 0; s < 30; ++s) {
    const uint32_t tc = 200000 + 10 * s;
    std::vector<std::pair<uint32_t, uint32_t>> hits;
    for (uint32_t i = 0; i < 10; ++i) {
      hits.push_back({7, tc - (100000 + 50 * (10 * s + i))});
    }
    entries.push_back(MakeEntry(tc, hits));
  }
  const VoteOptions options;
  const auto votes = ComputeVotes(entries, options);
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_EQ(votes[0].offset, 300.0);
  EXPECT_EQ(votes[0].nsim, 6);
  const OracleVote oracle =
      OracleVoteFor(7, OracleRegroup(entries).at(7), options);
  EXPECT_EQ(oracle.vote.offset, 300.0);
  EXPECT_TRUE(WithinRelative(votes[0].cost, oracle.min_cost, 1e-12));
}

// A random window: ids with 1 to 2,000 (candidate, match) pairs, part of
// them coherent at a planted offset (negative for about half of the ids),
// part near it, part duplicated reference time codes within one
// candidate, the rest scattered.
std::vector<CandidateEntry> RandomWindow(Rng* rng) {
  const int keyframes = static_cast<int>(rng->UniformInt(2, 12));
  const int points = static_cast<int>(rng->UniformInt(1, 6));
  std::vector<CandidateEntry> entries;
  uint32_t tc = 5000 + static_cast<uint32_t>(rng->UniformInt(0, 500));
  for (int k = 0; k < keyframes; ++k) {
    tc += static_cast<uint32_t>(rng->UniformInt(1, 15));
    for (int p = 0; p < points; ++p) {
      CandidateEntry entry;
      entry.candidate_time_code = tc;
      entry.x = static_cast<float>(rng->UniformInt(0, 320));
      entry.y = static_cast<float>(rng->UniformInt(0, 240));
      entries.push_back(entry);
    }
  }
  const int num_ids = static_cast<int>(rng->UniformInt(1, 6));
  for (int i = 0; i < num_ids; ++i) {
    const uint32_t id = static_cast<uint32_t>(rng->UniformInt(0, 50));
    const int64_t planted = rng->UniformInt(-4000, 4000);
    const float dx = static_cast<float>(rng->UniformInt(-20, 20));
    const float dy = static_cast<float>(rng->UniformInt(-20, 20));
    const int num_pairs =
        i == 0 && rng->Bernoulli(0.2)
            ? 2000
            : static_cast<int>(std::exp(rng->Uniform(0, std::log(2000.0))));
    for (int n = 0; n < num_pairs; ++n) {
      CandidateEntry& entry =
          entries[static_cast<size_t>(rng->UniformInt(0, entries.size() - 1))];
      core::Match m;
      m.id = id;
      m.x = entry.x - dx + static_cast<float>(rng->UniformInt(-3, 3));
      m.y = entry.y - dy + static_cast<float>(rng->UniformInt(-3, 3));
      const double kind = rng->Uniform(0, 1);
      int64_t offset = 0;
      if (kind < 0.3) {
        offset = planted + rng->UniformInt(-2, 2);
      } else if (kind < 0.6) {
        offset = planted + rng->UniformInt(-40, 40);
      } else if (kind < 0.75 && !entry.matches.empty()) {
        m.time_code = entry.matches[static_cast<size_t>(rng->UniformInt(
                                        0, entry.matches.size() - 1))]
                          .time_code;
        entry.matches.push_back(m);
        continue;
      } else {
        offset = rng->UniformInt(-4000, 4000);
        m.x = static_cast<float>(rng->UniformInt(0, 320));
        m.y = static_cast<float>(rng->UniformInt(0, 240));
      }
      m.time_code = static_cast<uint32_t>(entry.candidate_time_code - offset);
      entry.matches.push_back(m);
    }
  }
  return entries;
}

TEST(ComputeVotesTest, AgreesWithTheExhaustiveOracleOnRandomWindows) {
  for (uint64_t seed = 1; seed <= 160; ++seed) {
    Rng rng(seed);
    VoteOptions options;
    options.tukey_c = rng.Bernoulli(0.5) ? 12.0 : 7.5;
    options.use_spatial_coherence = rng.Bernoulli(0.5);
    options.refine_offset = rng.Bernoulli(0.5);
    const std::vector<CandidateEntry> entries = RandomWindow(&rng);
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << " c " << options.tukey_c
                 << " spatial " << options.use_spatial_coherence
                 << " refine " << options.refine_offset);

    const auto by_id = OracleRegroup(entries);
    const auto votes = ComputeVotes(entries, options);
    ASSERT_EQ(votes.size(), by_id.size());
    for (const Vote& vote : votes) {
      SCOPED_TRACE(::testing::Message() << "id " << vote.id);
      ASSERT_EQ(by_id.count(vote.id), 1u);
      const OracleEvidence& evidence = by_id.at(vote.id);
      const OracleVote oracle = OracleVoteFor(vote.id, evidence, options);
      EXPECT_TRUE(WithinRelative(
          vote.cost, OracleCost(evidence, vote.offset, options.tukey_c),
          1e-12))
          << vote.cost;
      const bool unique =
          oracle.runner_up_cost > oracle.min_cost * (1 + 1e-9) + 1e-12;
      if (!options.refine_offset) {
        EXPECT_LE(vote.cost, oracle.min_cost + 1e-12 * std::max(
                                                   1.0, oracle.min_cost));
        if (unique) {
          EXPECT_EQ(vote.offset, oracle.vote.offset);
          EXPECT_EQ(vote.nsim, oracle.vote.nsim);
        }
      } else if (unique) {
        // Same discrete start, same IRLS iterations.
        EXPECT_NEAR(vote.offset, oracle.vote.offset, 1e-9);
        EXPECT_EQ(vote.nsim, oracle.vote.nsim);
        EXPECT_TRUE(WithinRelative(vote.cost, oracle.vote.cost, 1e-12));
      }
    }
  }
}

// Expects `got` to be exactly the votes of `all` with nsim >= t, in the
// same order, with bit-equal offsets and costs.
void ExpectThresholdedSubset(const std::vector<Vote>& all,
                             const std::vector<Vote>& got, int t) {
  std::vector<Vote> expected;
  for (const Vote& vote : all) {
    if (vote.nsim >= t) {
      expected.push_back(vote);
    }
  }
  ASSERT_EQ(got.size(), expected.size()) << "t " << t;
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "t " << t << " vote " << i);
    EXPECT_EQ(got[i].id, expected[i].id);
    EXPECT_EQ(got[i].nsim, expected[i].nsim);
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].offset),
              std::bit_cast<uint64_t>(expected[i].offset));
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].cost),
              std::bit_cast<uint64_t>(expected[i].cost));
  }
}

// A pair of (id, tc) whose reference time code tc = candidate_tc - offset,
// or a random one when that falls outside the 32-bit time codes.
core::Match PairAt(uint32_t id, uint32_t candidate_tc, int64_t offset,
                   Rng* rng) {
  int64_t tc = static_cast<int64_t>(candidate_tc) - offset;
  if (tc < 0 || tc > std::numeric_limits<uint32_t>::max()) {
    tc = rng->UniformInt(0, std::numeric_limits<uint32_t>::max());
  }
  core::Match m;
  m.id = id;
  m.time_code = static_cast<uint32_t>(tc);
  return m;
}

// A random window for the threshold tests: key-frames with time codes near
// 0, near 2^32 - 1 or in between; ids below 64 and from 2^24 up; each id
// planted at an offset (negative for about half, sometimes near +-2^32)
// hit by a random share of the candidates with a few frames of jitter,
// plus scattered pairs. The planted offsets of some ids coincide.
std::vector<CandidateEntry> ThresholdWindow(Rng* rng) {
  const int keyframes = static_cast<int>(rng->UniformInt(4, 16));
  const int points = static_cast<int>(rng->UniformInt(1, 4));
  const double where = rng->Uniform(0, 1);
  uint32_t tc = where < 0.3   ? static_cast<uint32_t>(rng->UniformInt(0, 20))
                : where < 0.6 ? std::numeric_limits<uint32_t>::max() -
                                    static_cast<uint32_t>(
                                        rng->UniformInt(200, 400))
                              : static_cast<uint32_t>(
                                    rng->UniformInt(100000, 200000));
  std::vector<CandidateEntry> entries;
  for (int k = 0; k < keyframes; ++k) {
    tc += static_cast<uint32_t>(rng->UniformInt(1, 12));
    for (int p = 0; p < points; ++p) {
      CandidateEntry entry;
      entry.candidate_time_code = tc;
      entry.x = static_cast<float>(rng->UniformInt(0, 320));
      entry.y = static_cast<float>(rng->UniformInt(0, 240));
      entries.push_back(entry);
    }
  }
  const int64_t shared_offset = rng->UniformInt(-5000, 5000);
  const int num_ids = static_cast<int>(rng->UniformInt(1, 40));
  for (int i = 0; i < num_ids; ++i) {
    const uint32_t id =
        rng->Bernoulli(0.5)
            ? static_cast<uint32_t>(rng->UniformInt(0, 63))
            : (1u << 24) + static_cast<uint32_t>(rng->UniformInt(0, 1 << 30));
    const double kind = rng->Uniform(0, 1);
    const int64_t planted =
        kind < 0.2   ? shared_offset
        : kind < 0.3 ? (rng->Bernoulli(0.5) ? 1 : -1) *
                           (int64_t{1} << 32) + rng->UniformInt(-500, 500)
                     : rng->UniformInt(-100000, 100000);
    const double share = rng->Uniform(0, 1);
    const int jitter = static_cast<int>(rng->UniformInt(0, 4));
    for (CandidateEntry& entry : entries) {
      if (rng->Bernoulli(share)) {
        core::Match m =
            PairAt(id, entry.candidate_time_code,
                   planted + rng->UniformInt(-jitter, jitter), rng);
        m.x = entry.x + static_cast<float>(rng->UniformInt(-4, 4));
        m.y = entry.y + static_cast<float>(rng->UniformInt(-4, 4));
        entry.matches.push_back(m);
      }
      const int scattered = static_cast<int>(rng->UniformInt(0, 3));
      for (int n = 0; n < scattered; ++n) {
        core::Match m = PairAt(id, entry.candidate_time_code,
                               rng->UniformInt(-200000, 200000), rng);
        m.x = static_cast<float>(rng->UniformInt(0, 320));
        m.y = static_cast<float>(rng->UniformInt(0, 240));
        entry.matches.push_back(m);
      }
    }
  }
  return entries;
}

TEST(ComputeVotesThresholdTest, ReturnsExactlyTheVotesReachingTheThreshold) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const std::vector<CandidateEntry> entries = ThresholdWindow(&rng);
    for (const double tolerance : {0.0, 2.5, 3.0, 7.5}) {
      for (const bool refine : {false, true}) {
        for (const bool spatial : {false, true}) {
          VoteOptions options;
          options.tolerance = tolerance;
          options.refine_offset = refine;
          options.use_spatial_coherence = spatial;
          SCOPED_TRACE(::testing::Message()
                       << "seed " << seed << " tolerance " << tolerance
                       << " refine " << refine << " spatial " << spatial);
          const std::vector<Vote> all = ComputeVotes(entries, options, 0);
          EXPECT_EQ(all.size(), OracleRegroup(entries).size());
          for (const int t : {0, 1, 2, 4, 8, 1000}) {
            ExpectThresholdedSubset(all, ComputeVotes(entries, options, t),
                                    t);
          }
        }
      }
    }
  }
}

TEST(ComputeVotesThresholdTest, UnboundedOrNegativeToleranceStaysExact) {
  Rng rng(77);
  const std::vector<CandidateEntry> entries = ThresholdWindow(&rng);
  for (const double tolerance :
       {-1.0, 1e12, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    VoteOptions options;
    options.tolerance = tolerance;
    const std::vector<Vote> all = ComputeVotes(entries, options, 0);
    for (const int t : {2, 4, 8}) {
      ExpectThresholdedSubset(all, ComputeVotes(entries, options, t), t);
    }
  }
}

TEST(ComputeVotesThresholdTest, KeepsATightRunStraddlingABucketEdge) {
  // Exactly t candidates of id 9 whose offsets are 2 floor(tol) + 1
  // consecutive values, all within tol of the middle one, placed at every
  // phase of the prefilter's buckets (up to 32 frames wide), for positive
  // and negative offsets. Id 9 must come out with nsim = t, and an id with
  // the same run one candidate short must not.
  for (const double tolerance : {3.0, 7.5}) {
    const int t = 2 * static_cast<int>(tolerance) + 1;
    VoteOptions options;
    options.tolerance = tolerance;
    for (const int64_t base : {int64_t{-6400}, int64_t{6400}}) {
      for (int64_t phase = 0; phase < 32; ++phase) {
        SCOPED_TRACE(::testing::Message() << "tolerance " << tolerance
                                          << " base " << base << " phase "
                                          << phase);
        Rng rng(static_cast<uint64_t>(phase + 1));
        std::vector<CandidateEntry> entries;
        for (int j = 0; j < t; ++j) {
          CandidateEntry entry;
          entry.candidate_time_code = 20000 + 25 * static_cast<uint32_t>(j);
          entry.matches.push_back(PairAt(
              9, entry.candidate_time_code, base + phase + j, &rng));
          if (j + 1 < t) {
            entry.matches.push_back(PairAt(
                (1u << 24) + 5, entry.candidate_time_code, base + phase + j,
                &rng));
          }
          entries.push_back(entry);
        }
        const std::vector<Vote> votes = ComputeVotes(entries, options, t);
        ASSERT_EQ(votes.size(), 1u);
        EXPECT_EQ(votes[0].id, 9u);
        EXPECT_EQ(votes[0].nsim, t);
        EXPECT_EQ(votes[0].offset, static_cast<double>(base + phase + t / 2));
        ExpectThresholdedSubset(ComputeVotes(entries, options, 0), votes, t);
      }
    }
  }
}

TEST(ComputeVotesThresholdTest, KeepsAFullSpanRunAroundAHalfFrameOffset) {
  // The offsets within a tolerance of a real offset b span up to
  // floor(2 tol) + 1 consecutive values, one more than 2 floor(tol) + 1
  // when b sits near a half frame and the tolerance's fraction is at least
  // one half. Id 9 has one candidate at each of floor(2 tol) + 1
  // consecutive offsets; the IRLS refinement puts b within a hair of their
  // half-frame centre, so every candidate is within tol of it and nsim is
  // floor(2 tol) + 1 at that threshold, at every phase of the prefilter's
  // buckets. A prefilter span of floor(2 tol) or 2 floor(tol) + 1 drops
  // id 9 and fails this test. The span floor(2 tol) + 1 in ComputeVotes is
  // exactly this bound: a wider span passes here too, and no window can
  // need one, since a whole or half frame between the two end offsets is
  // exact in double and rounding never crosses it.
  for (const double tolerance : {1.75, 3.75}) {
    const int t = static_cast<int>(std::floor(2 * tolerance)) + 1;
    VoteOptions options;
    options.tolerance = tolerance;
    options.refine_offset = true;
    for (const int64_t base : {int64_t{-6400}, int64_t{6400}}) {
      for (int64_t phase = 0; phase < 32; ++phase) {
        SCOPED_TRACE(::testing::Message() << "tolerance " << tolerance
                                          << " base " << base << " phase "
                                          << phase);
        Rng rng(static_cast<uint64_t>(phase + 1));
        std::vector<CandidateEntry> entries;
        for (int j = 0; j < t; ++j) {
          CandidateEntry entry;
          entry.candidate_time_code = 20000 + 25 * static_cast<uint32_t>(j);
          entry.matches.push_back(PairAt(
              9, entry.candidate_time_code, base + phase + j, &rng));
          entries.push_back(entry);
        }
        const std::vector<Vote> votes = ComputeVotes(entries, options, t);
        ASSERT_EQ(votes.size(), 1u);
        EXPECT_EQ(votes[0].id, 9u);
        EXPECT_EQ(votes[0].nsim, t);
        EXPECT_NEAR(votes[0].offset,
                    static_cast<double>(base + phase) + 0.5 * (t - 1), 0.01);
        ExpectThresholdedSubset(ComputeVotes(entries, options, 0), votes, t);
      }
    }
  }
}

TEST(ComputeVotesThresholdTest, SketchCollisionsKeepTheAnswerExact) {
  // 30,000 ids with t - 1 candidates each at one offset: no id can reach t.
  // The 90,000 pairs land in a sketch of about six cells per match, so
  // thousands of them share a cell or its neighbour with another id and
  // pass the sketch; the exact bound after the regroup then drops them
  // unvoted. Two ids with t candidates at one offset survive.
  const int t = 4;
  Rng rng(5);
  std::vector<CandidateEntry> entries;
  for (int j = 0; j < 64; ++j) {
    CandidateEntry entry;
    entry.candidate_time_code = 1000000 + 40 * static_cast<uint32_t>(j);
    entries.push_back(entry);
  }
  const int num_ids = 30000;
  for (int i = 0; i < num_ids + 2; ++i) {
    const uint32_t id = i < num_ids ? (1u << 24) + 3 * static_cast<uint32_t>(i)
                                    : static_cast<uint32_t>(i - num_ids + 1);
    const int64_t offset = rng.UniformInt(-500000, 500000);
    const int candidates = i < num_ids ? t - 1 : t;
    for (int j = 0; j < candidates; ++j) {
      CandidateEntry& entry =
          entries[static_cast<size_t>(rng.UniformInt(0, 63))];
      entry.matches.push_back(
          PairAt(id, entry.candidate_time_code, offset, &rng));
    }
  }
  obs::Counter* pruned =
      obs::MetricsRegistry::Global().GetCounter("cbcd.vote_ids_pruned");
  const uint64_t pruned_before = pruned->Value();
  const VoteOptions options;
  const std::vector<Vote> votes = ComputeVotes(entries, options, t);
  const uint64_t ids_pruned = pruned->Value() - pruned_before;
  ExpectThresholdedSubset(ComputeVotes(entries, options, 0), votes, t);
  ASSERT_EQ(votes.size(), 2u);
  EXPECT_EQ(votes[0].nsim, t);
  EXPECT_EQ(votes[1].nsim, t);
  EXPECT_EQ(ids_pruned, static_cast<uint64_t>(num_ids));
}

}  // namespace
}  // namespace s3vcd::cbcd
