#include "cbcd/voting.h"

#include <algorithm>
#include <bit>
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
obs::Counter* const g_ids_pruned =
    obs::MetricsRegistry::Global().GetCounter("cbcd.vote_ids_pruned");

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

// The distinct ids of a window, each marked reachable or not: open
// addressing with linear probing, doubled before it gets half full.
class IdTable {
 public:
  struct Slot {
    uint32_t id = 0;
    bool used = false;
    bool reachable = false;
  };

  void Clear() {
    slots_.assign(std::max<size_t>(slots_.size(), 1024), Slot{});
    size_ = 0;
  }

  size_t size() const { return size_; }

  /// The slot of `id`, inserted unmarked if absent.
  Slot& Find(uint32_t id) {
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
    }
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >>
                                   (64 - std::countr_zero(slots_.size())));
    while (slots_[i].used && slots_[i].id != id) {
      i = (i + 1) & mask;
    }
    Slot& slot = slots_[i];
    if (!slot.used) {
      slot.id = id;
      slot.used = true;
      ++size_;
    }
    return slot;
  }

 private:
  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.used) {
        Find(slot.id).reachable = slot.reachable;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

// Scratch of the nsim prefilter, reused by every call on a thread.
struct PrefilterScratch {
  std::vector<uint8_t> sketch;
  std::vector<uint32_t> cells;  // each window match's cell, in window order
  IdTable ids;
};

// Sketch cells per window match, rounded up to a power of two and kept
// within bounds (at most 4 MB for a huge window). On the 165k-match windows
// of monitor_400k (a 4-core Xeon with 2 MB of L2 per core), 2^18 cells let
// half the matches through and 2^19 or 2^21 cells voted slower than 2^20;
// one-byte cells keep that sketch at 1 MB, in L2 beside the streamed
// window, where two-byte cells took a fifth more vote time.
constexpr size_t kCellsPerMatch = 6;
constexpr size_t kMinCells = size_t{1} << 10;
constexpr size_t kMaxCells = size_t{1} << 22;

// Marks in `ids` every id of `entries` that may reach nsim >= min_nsim
// (> 1), an id's nsim being at most the number of its (candidate, match)
// pairs whose integer offsets o = tc' - tc fall in `span` consecutive
// values (see ComputeVotes). With bucket width W, a power of two >= span,
// such values lie in two adjacent buckets k, k + 1, so nsim(id) <=
// n(id, k) + n(id, k + 1), n counting the id's pairs per bucket. The counts
// go to saturating cells (hash(id) + k) mod 2^B, where cell k + 1 is the
// next one; a collision only adds to a cell, so an id is never dropped
// while one of its bucket pairs could hold min_nsim pairs.
void MarkReachableIds(const std::vector<CandidateEntry>& entries,
                      int64_t span, int min_nsim, PrefilterScratch* scratch) {
  S3VCD_TRACE_SPAN("cbcd.vote.prefilter");
  const int shift = std::bit_width(static_cast<uint64_t>(span) - 1);
  size_t num_matches = 0;
  for (const CandidateEntry& entry : entries) {
    num_matches += entry.matches.size();
  }
  const size_t cells = std::clamp(std::bit_ceil(kCellsPerMatch * num_matches),
                                  kMinCells, kMaxCells);
  const uint64_t mask = cells - 1;
  std::vector<uint8_t>& sketch = scratch->sketch;
  sketch.resize(std::max(sketch.size(), cells));
  std::fill_n(sketch.begin(), cells, uint8_t{0});
  std::vector<uint32_t>& cells_of = scratch->cells;
  cells_of.resize(num_matches);
  size_t i = 0;
  for (const CandidateEntry& entry : entries) {
    const int64_t candidate_tc = entry.candidate_time_code;
    for (const core::Match& m : entry.matches) {
      const int64_t offset = candidate_tc - static_cast<int64_t>(m.time_code);
      const uint64_t hash = (m.id * 0x9E3779B97F4A7C15ull) >> 32;
      const uint32_t c = static_cast<uint32_t>(
          (hash + static_cast<uint64_t>(offset >> shift)) & mask);
      cells_of[i++] = c;
      sketch[c] += sketch[c] != std::numeric_limits<uint8_t>::max();
    }
  }
  // A saturated cell holds at least 255 pairs, so reaching min(min_nsim,
  // 255) is all a pair of saturated counts can show.
  const int needed =
      std::min<int>(min_nsim, std::numeric_limits<uint8_t>::max());
  IdTable& ids = scratch->ids;
  ids.Clear();
  i = 0;
  for (const CandidateEntry& entry : entries) {
    for (const core::Match& m : entry.matches) {
      const uint32_t c = cells_of[i++];
      if (sketch[c] + sketch[(c + 1) & mask] >= needed) {
        ids.Find(m.id).reachable = true;
      }
    }
  }
}

// Whether `span` consecutive offsets hold at least `min_nsim` of `pairs`,
// sorted by offset: the bound of MarkReachableIds without its sketch.
bool SomeSpanHolds(const std::vector<OffsetPair>& pairs, int64_t span,
                   int min_nsim) {
  for (size_t lo = 0, hi = 0; hi < pairs.size(); ++hi) {
    while (pairs[hi].offset - pairs[lo].offset >= span) {
      ++lo;
    }
    if (hi - lo + 1 >= static_cast<size_t>(min_nsim)) {
      return true;
    }
  }
  return false;
}

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
                               const VoteOptions& options, int min_nsim) {
  S3VCD_TRACE_SPAN("cbcd.compute_votes");
  const double c = options.tukey_c;
  S3VCD_CHECK(c > 0);
  const double saturation = c * c / 6.0;

  // Pass 0, prefilter (min_nsim > 1). A candidate counts toward nsim only
  // through a pair whose integer offset o has a computed residual
  // |o - b| <= tolerance, for the one real offset b of the id: those
  // offsets lie in `span` = floor(2 tolerance) + 1 consecutive values,
  // which bounds nsim by the pairs they hold. Rounding cannot widen the
  // run: for two offsets floor(2 tolerance) + 1 apart, the whole or half
  // frame midway between them is exact in double (time codes stay below
  // 2^52) and rounding is monotone, so whichever side of it b falls on,
  // the far offset's computed residual is at least
  // (floor(2 tolerance) + 1) / 2 > tolerance. Ids whose bound stays below
  // min_nsim are never voted; every other id keeps all its matches, so its
  // vote is the one an unfiltered call computes. The bound does not apply
  // to a NaN or unbounded tolerance.
  const double span = std::floor(2 * options.tolerance) + 1;
  const bool pruned = min_nsim > 1 && span < 0x1p40;
  const int64_t span_values =
      pruned ? static_cast<int64_t>(std::max(span, 1.0)) : 0;
  thread_local PrefilterScratch prefilter;
  IdTable& reachable = prefilter.ids;
  if (pruned) {
    MarkReachableIds(entries, span_values, min_nsim, &prefilter);
  }

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
        if (pruned && !reachable.Find(m.id).reachable) {
          continue;
        }
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
  if (pruned) {
    g_ids_pruned->Increment(reachable.size() - num_ids);
  }

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
      if (pruned && !SomeSpanHolds(pairs, span_values, min_nsim)) {
        // The sketch let the id through on a collision; its exact bound
        // stays below min_nsim, so it is not voted.
        votes[g].nsim = -1;
        g_ids_pruned->Increment();
        continue;
      }
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
      if (votes[g].nsim < 0) {
        continue;
      }
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

  std::erase_if(votes, [&](const Vote& v) { return v.nsim < min_nsim; });
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
