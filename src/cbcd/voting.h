#ifndef S3VCD_CBCD_VOTING_H_
#define S3VCD_CBCD_VOTING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/record.h"

namespace s3vcd::cbcd {

/// Options of the temporal voting strategy (paper Section III).
struct VoteOptions {
  /// Scale c of Tukey's biweight, in frames (> 0): residuals beyond c are
  /// saturated outliers. The offset search visits each match at most
  /// 2 ceil(c) - 1 times.
  double tukey_c = 12.0;
  /// Residual tolerance, in frames, for a candidate fingerprint to count
  /// toward the similarity measure nsim.
  double tolerance = 3.0;
  /// Refine the discrete offset estimate with a few IRLS iterations of the
  /// Tukey M-estimator, yielding a continuous (sub-frame) offset. Useful
  /// when candidate and reference frame rates differ slightly.
  bool refine_offset = false;
  int irls_iterations = 5;
  /// Extension (paper Section VI): additionally require the spatial
  /// displacement of the matched interest points to agree with the median
  /// displacement, tightening the vote.
  bool use_spatial_coherence = false;
  /// Spatial tolerance in pixels for the coherence check.
  double spatial_tolerance = 16.0;
};

/// The buffered search results of one candidate fingerprint (one interest
/// point of one candidate key-frame).
struct CandidateEntry {
  /// Time code tc'_j of the candidate key-frame, in frames.
  uint32_t candidate_time_code = 0;
  /// Interest point position in the candidate frame (spatial extension).
  float x = 0;
  float y = 0;
  /// Referenced fingerprints returned by the statistical query.
  std::vector<core::Match> matches;
};

/// One identifier's vote: the robustly estimated temporal offset b such
/// that tc' = tc + b, and the number of candidate fingerprints consistent
/// with it.
struct Vote {
  uint32_t id = 0;
  double offset = 0;
  /// Similarity measure: candidate fingerprints within tolerance of the
  /// estimated offset (paper's nsim).
  int nsim = 0;
  /// Value of the minimized robust cost (eq. 2); lower is better.
  double cost = 0;
};

/// Estimates, for every identifier present in `entries`, the offset b(id)
/// minimizing eq. (2) with Tukey's biweight over every observed offset
/// tc'_j - tc_jk (the smallest b wins a tie), then counts nsim. Returns the
/// votes with nsim >= `min_nsim`, sorted by decreasing nsim, then
/// increasing cost, then increasing id: exactly that subset, in that
/// order, of the votes of a call with `min_nsim` = 0, with bit-equal
/// offsets and costs.
///
/// With `min_nsim` > 1, ids that cannot reach it are never voted: nsim(id)
/// is at most the number of the id's (candidate, match) pairs whose integer
/// offsets fall in floor(2 tolerance) + 1 consecutive values. A saturating
/// sketch of those counts drops most such ids before the regroup, and the
/// exact count drops the rest before their offset search (DESIGN.md §4).
std::vector<Vote> ComputeVotes(const std::vector<CandidateEntry>& entries,
                               const VoteOptions& options, int min_nsim = 0);

}  // namespace s3vcd::cbcd

#endif  // S3VCD_CBCD_VOTING_H_
