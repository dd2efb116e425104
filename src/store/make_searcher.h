#ifndef S3VCD_STORE_MAKE_SEARCHER_H_
#define S3VCD_STORE_MAKE_SEARCHER_H_

#include <array>
#include <memory>
#include <string>
#include <string_view>

#include "core/database.h"
#include "core/searcher.h"
#include "util/status.h"

namespace s3vcd::store {

/// The served backends, sorted: the paper's S3 index, its persistent
/// insertable variant (store::SegmentSearcher), plain sequential scan and
/// the vamana graph (core/vamana.h).
inline constexpr std::array<std::string_view, 4> kSearcherBackends = {
    "s3", "segment", "seqscan", "vamana"};

/// Construction parameters of the backends that take any; each backend
/// reads the fields it understands and ignores the rest. The s3 index
/// sizes its table from the record count, and the remaining knobs of
/// SegmentSearcherOptions and core::VamanaOptions keep their defaults.
struct SearcherConfig {
  /// segment: store directory (empty = ephemeral temp dir). See
  /// docs/segment_format.md.
  std::string segment_store_dir;
  /// vamana: graph out-degree bound R, query beam L and optional graph
  /// blob path — see core/vamana.h and the knob table in
  /// docs/tuning.md.
  int vamana_graph_degree = 32;
  int vamana_beam_width = 64;
  std::string vamana_graph_path;
};

/// OK when `name` is one of kSearcherBackends; otherwise kInvalidArgument
/// with the message "unknown backend '<name>'; registered backends: s3,
/// segment, seqscan, vamana".
Status CheckSearcherBackend(std::string_view name);

/// Constructs backend `name` over `db` (consumed). An unknown name or a
/// store that fails to open returns the error instead of a searcher.
Result<std::unique_ptr<core::Searcher>> MakeSearcher(
    std::string_view name, core::FingerprintDatabase db,
    const SearcherConfig& config = {});

}  // namespace s3vcd::store

#endif  // S3VCD_STORE_MAKE_SEARCHER_H_
