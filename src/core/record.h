#ifndef S3VCD_CORE_RECORD_H_
#define S3VCD_CORE_RECORD_H_

#include <cstdint>

#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

/// One referenced fingerprint as stored in the database: the 20-byte
/// descriptor plus the video sequence identifier and time code used by the
/// voting strategy (Section III). The interest point position is kept for
/// the spatial-coherence extension of the vote (paper Section VI).
struct FingerprintRecord {
  fp::Fingerprint descriptor{};
  uint32_t id = 0;
  uint32_t time_code = 0;
  float x = 0;
  float y = 0;
};

/// One search hit returned by a query.
struct Match {
  uint32_t id = 0;
  uint32_t time_code = 0;
  /// Distance between the query and the stored descriptor; which distance
  /// depends on the refinement mode — see RefineRecord in
  /// core/scan_kernel.h for the definitive statement.
  float distance = 0;
  float x = 0;
  float y = 0;
};

/// Per-query instrumentation, the raw material of the paper's timing plots.
struct QueryStats {
  /// The two stages' clocks, in nanoseconds: the statistical / geometric
  /// filtering step (block selection, or a baseline's candidate pass) and
  /// the refinement scan of the selected curve sections. They feed
  /// `index.selection_ns` / `index.refine_ns` and the `index.filter_us` /
  /// `index.refine_us` histograms (docs/observability.md), the `# METRICS`
  /// blocks and the `s3vcd_tool query` timing summary.
  uint64_t selection_ns = 0;
  uint64_t refine_ns = 0;
  /// True when the block selection was served from a SelectionCache hit.
  /// On a cached hit no selection ran: nodes_visited is reported as 0 and
  /// selection_ns is the (tiny) lookup time, while blocks_selected /
  /// probability_mass still describe the reused selection.
  bool selection_cached = false;
  uint64_t blocks_selected = 0;   ///< card(B_alpha)
  uint64_t ranges_scanned = 0;    ///< merged contiguous curve sections
  uint64_t records_scanned = 0;   ///< fingerprints touched by refinement
  uint64_t nodes_visited = 0;     ///< selection work (BlockSelection)
  double probability_mass = 0;    ///< achieved expectation of the region
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_RECORD_H_
