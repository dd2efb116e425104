#include "cbcd/voting.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "cbcd/tukey.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace s3vcd::cbcd {

namespace {

obs::Counter* const g_votes_cast =
    obs::MetricsRegistry::Global().GetCounter("cbcd.votes_cast");
obs::Counter* const g_cost_evals =
    obs::MetricsRegistry::Global().GetCounter("cbcd.tukey_cost_evals");
obs::Counter* const g_irls_iterations =
    obs::MetricsRegistry::Global().GetCounter("cbcd.irls_iterations");

// One match of the window and the index of the entry holding it.
struct Located {
  uint32_t id;
  uint32_t entry;
  const core::Match* match;
};

// One (candidate, match) pair of an id: its offset o = tc'_j - tc_jk and the
// id-local index j of the candidate.
struct OffsetPair {
  int64_t offset;
  uint32_t candidate;
};

constexpr uint32_t kNoResidual = std::numeric_limits<uint32_t>::max();

double MedianOf(std::vector<double> v) {
  const size_t upper = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + upper, v.end());
  if (v.size() % 2 == 1) {
    return v[upper];
  }
  const double hi = v[upper];
  const double lo = *std::max_element(v.begin(), v.begin() + upper);
  return 0.5 * (lo + hi);
}

}  // namespace

std::vector<Vote> ComputeVotes(const std::vector<CandidateEntry>& entries,
                               const VoteOptions& options) {
  S3VCD_TRACE_SPAN("cbcd.compute_votes");
  const double c = options.tukey_c;
  S3VCD_CHECK(c > 0);
  const double saturation = c * c / 6.0;

  // Pass 1, regroup: the window's matches in window order, sorted stably by
  // id with an LSD radix sort, one byte of the id per pass (four times
  // faster than a comparison sort on monitoring windows). An id's run lists
  // its candidates in window order, each candidate's matches in entry order.
  std::vector<Located> grouped;
  std::vector<size_t> id_begin;  // start of each id's run, then the end
  {
    S3VCD_TRACE_SPAN("cbcd.vote.regroup");
    uint32_t max_id = 0;
    for (uint32_t e = 0; e < entries.size(); ++e) {
      for (const core::Match& m : entries[e].matches) {
        grouped.push_back({m.id, e, &m});
        max_id = std::max(max_id, m.id);
      }
    }
    std::vector<Located> scratch(grouped.size());
    for (int shift = 0; shift < 32 && (max_id >> shift) != 0; shift += 8) {
      size_t start[257] = {};
      for (const Located& loc : grouped) {
        ++start[((loc.id >> shift) & 0xff) + 1];
      }
      std::partial_sum(start, start + 257, start);
      for (const Located& loc : grouped) {
        scratch[start[(loc.id >> shift) & 0xff]++] = loc;
      }
      grouped.swap(scratch);
    }
    for (size_t k = 0; k < grouped.size(); ++k) {
      if (k == 0 || grouped[k].id != grouped[k - 1].id) {
        id_begin.push_back(k);
      }
    }
    id_begin.push_back(grouped.size());
  }
  const size_t num_ids = id_begin.size() - 1;

  // Pass 2, offset search. Offsets are integers and rho saturates at c, so
  // a window of the id's pairs sorted by offset, holding those with o in
  // (b - c, b + c), yields the exact eq. (2) cost at every distinct b:
  //   (J - w) c^2/6 + sum of rho(smallest residual) over the w candidates
  // with a pair in the window. The in-window terms are summed through a
  // histogram of their integer residuals, so equal costs are bit-equal.
  std::vector<Vote> votes(num_ids);
  {
    S3VCD_TRACE_SPAN("cbcd.vote.offset_search");
    std::vector<OffsetPair> pairs;
    std::vector<double> candidate_tc;
    std::vector<uint32_t> best_residual;
    std::vector<uint32_t> touched;
    std::vector<double> rho;  // rho(r) for the integer residuals r < c
    std::vector<uint32_t> histogram;
    std::vector<double> nearest_abs;
    std::vector<int64_t> nearest_offset;
    for (size_t g = 0; g < num_ids; ++g) {
      pairs.clear();
      candidate_tc.clear();
      for (size_t k = id_begin[g]; k < id_begin[g + 1]; ++k) {
        const Located& loc = grouped[k];
        const uint32_t tc_prime = entries[loc.entry].candidate_time_code;
        if (k == id_begin[g] || loc.entry != grouped[k - 1].entry) {
          candidate_tc.push_back(tc_prime);
        }
        pairs.push_back({static_cast<int64_t>(tc_prime) -
                             static_cast<int64_t>(loc.match->time_code),
                         static_cast<uint32_t>(candidate_tc.size() - 1)});
      }
      std::sort(pairs.begin(), pairs.end(),
                [](const OffsetPair& a, const OffsetPair& b) {
                  return a.offset < b.offset;
                });
      const size_t num_candidates = candidate_tc.size();
      // Residuals in the window are integers below c and below the id's
      // offset span.
      const size_t reach = static_cast<size_t>(std::min(
          std::ceil(c),
          static_cast<double>(pairs.back().offset - pairs.front().offset) +
              1));
      while (rho.size() < reach) {
        rho.push_back(TukeyRho(static_cast<double>(rho.size()), c));
      }
      histogram.resize(std::max(histogram.size(), reach), 0);
      best_residual.assign(num_candidates, kNoResidual);

      double best_b = static_cast<double>(pairs.front().offset);
      double best_cost = std::numeric_limits<double>::infinity();
      size_t lo = 0;
      size_t hi = 0;
      uint64_t evals = 0;
      for (size_t i = 0; i < pairs.size();) {
        const int64_t b = pairs[i].offset;
        while (static_cast<double>(b - pairs[lo].offset) >= c) {
          ++lo;
        }
        while (hi < pairs.size() &&
               static_cast<double>(pairs[hi].offset - b) < c) {
          ++hi;
        }
        for (size_t k = lo; k < hi; ++k) {
          const uint32_t r =
              static_cast<uint32_t>(std::abs(pairs[k].offset - b));
          uint32_t& best = best_residual[pairs[k].candidate];
          if (best == kNoResidual) {
            touched.push_back(pairs[k].candidate);
            best = r;
          } else {
            best = std::min(best, r);
          }
        }
        for (uint32_t j : touched) {
          ++histogram[best_residual[j]];
          best_residual[j] = kNoResidual;
        }
        double cost =
            static_cast<double>(num_candidates - touched.size()) * saturation;
        for (size_t r = 0; r < reach; ++r) {
          cost += histogram[r] * rho[r];
          histogram[r] = 0;
        }
        touched.clear();
        ++evals;
        if (cost < best_cost) {
          best_cost = cost;
          best_b = static_cast<double>(b);
        }
        while (i < pairs.size() && pairs[i].offset == b) {
          ++i;
        }
      }
      g_cost_evals->Increment(evals);

      if (options.refine_offset) {
        // Each candidate's pair nearest to b; on a tie the smaller offset,
        // i.e. the larger reference time code, wins.
        const auto find_nearest = [&](double b) {
          nearest_abs.assign(num_candidates,
                             std::numeric_limits<double>::infinity());
          nearest_offset.resize(num_candidates);
          for (const OffsetPair& p : pairs) {
            const double d = std::abs(static_cast<double>(p.offset) - b);
            if (d < nearest_abs[p.candidate]) {
              nearest_abs[p.candidate] = d;
              nearest_offset[p.candidate] = p.offset;
            }
          }
        };
        // IRLS on the Tukey M-estimator: each candidate contributes its
        // nearest reference time code, weighted by the influence function.
        for (int iter = 0; iter < options.irls_iterations; ++iter) {
          g_irls_iterations->Increment();
          find_nearest(best_b);
          double weighted_sum = 0;
          double weight_total = 0;
          for (size_t j = 0; j < num_candidates; ++j) {
            const double tc =
                candidate_tc[j] - static_cast<double>(nearest_offset[j]);
            const double residual = candidate_tc[j] - (tc + best_b);
            const double w = TukeyWeight(residual, c);
            weighted_sum += w * (candidate_tc[j] - tc);
            weight_total += w;
          }
          if (weight_total <= 0) {
            break;
          }
          const double next = weighted_sum / weight_total;
          if (std::abs(next - best_b) < 1e-6) {
            best_b = next;
            break;
          }
          best_b = next;
        }
        g_cost_evals->Increment();
        find_nearest(best_b);
        best_cost = 0;
        for (double d : nearest_abs) {
          best_cost += TukeyRho(d, c);
        }
      }

      votes[g].id = grouped[id_begin[g]].id;
      votes[g].offset = best_b;
      votes[g].cost = best_cost;
    }
  }

  // Pass 3, nsim: candidate fingerprints with a residual within tolerance
  // of the estimated offset. With the spatial extension enabled, first
  // estimate the median displacement of the temporally consistent matches,
  // then require agreement with it.
  {
    S3VCD_TRACE_SPAN("cbcd.vote.nsim");
    std::vector<double> dx;  // displacements of the consistent candidates
    std::vector<double> dy;
    for (size_t g = 0; g < num_ids; ++g) {
      const double b = votes[g].offset;
      dx.clear();
      dy.clear();
      for (size_t k = id_begin[g]; k < id_begin[g + 1];) {
        const uint32_t e = grouped[k].entry;
        const CandidateEntry& entry = entries[e];
        const core::Match* best_match = nullptr;
        double best_abs = options.tolerance;
        for (; k < id_begin[g + 1] && grouped[k].entry == e; ++k) {
          const core::Match* m = grouped[k].match;
          const double residual =
              static_cast<double>(entry.candidate_time_code) -
              (static_cast<double>(m->time_code) + b);
          if (std::abs(residual) <= best_abs) {
            best_abs = std::abs(residual);
            best_match = m;
          }
        }
        if (best_match != nullptr) {
          dx.push_back(entry.x - best_match->x);
          dy.push_back(entry.y - best_match->y);
        }
      }
      int nsim = static_cast<int>(dx.size());
      if (options.use_spatial_coherence && !dx.empty()) {
        const double mx = MedianOf(dx);
        const double my = MedianOf(dy);
        nsim = 0;
        for (size_t i = 0; i < dx.size(); ++i) {
          if (std::hypot(dx[i] - mx, dy[i] - my) <=
              options.spatial_tolerance) {
            ++nsim;
          }
        }
      }
      votes[g].nsim = nsim;
    }
  }

  g_votes_cast->Increment(votes.size());
  std::sort(votes.begin(), votes.end(), [](const Vote& a, const Vote& b) {
    if (a.nsim != b.nsim) {
      return a.nsim > b.nsim;
    }
    if (a.cost != b.cost) {
      return a.cost < b.cost;
    }
    return a.id < b.id;
  });
  return votes;
}

}  // namespace s3vcd::cbcd
