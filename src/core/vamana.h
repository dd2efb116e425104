#ifndef S3VCD_CORE_VAMANA_H_
#define S3VCD_CORE_VAMANA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/descriptor_block.h"
#include "core/record.h"
#include "core/searcher.h"
#include "fingerprint/fingerprint.h"
#include "util/status.h"

namespace s3vcd::core {

/// Options of the Vamana-style graph ANN backend ("vamana"):
/// a single-shot DiskANN-flavored proximity graph over a snapshot of
/// fingerprint records, built with GreedySearch + alpha-RobustPrune under
/// a hard out-degree bound.
struct VamanaOptions {
  /// Out-degree bound R of every node.
  int graph_degree = 32;
  /// Beam width L_build of the build-time greedy searches (clamped up to
  /// graph_degree so the pruning pool is never smaller than the degree).
  int build_beam = 64;
  /// Default query-time beam width L. Larger beams visit more of the graph:
  /// higher recall, more distance computations (see docs/tuning.md for the
  /// measured recall-vs-latency tradeoff).
  int beam_width = 64;
  /// RobustPrune diversity factor; > 1 keeps longer-range edges that help
  /// the search escape local neighborhoods.
  double alpha = 1.2;
  /// Seed of the random insertion order and the initial random graph. The
  /// build is deterministic in (records, options) — including this seed —
  /// regardless of build_threads (pinned by tests/backend_parity_test.cc).
  uint64_t seed = 1;
  /// Build fan-out width (0 = hardware concurrency), run on the shared
  /// ThreadPool via ParallelFor.
  int build_threads = 0;
  /// Optional graph blob path: loaded when header + record digest match
  /// the current records and options, (re)written after a build, so
  /// rebuilds are not paid per process. Empty = build in memory each time.
  std::string graph_path;
};

/// Per-thread beam-search scratch, reused across queries (the same pattern
/// as the filter layer's SelectionScratch): the epoch-stamped visited set,
/// the sorted candidate pool and the gather id/distance staging buffers.
/// Obtain via ThreadLocalVamanaScratch().
struct VamanaScratch {
  struct Candidate {
    uint32_t dist_sq = 0;
    uint32_t id = 0;
    bool expanded = false;
  };

  std::vector<uint32_t> visit_mark;  ///< per-node epoch stamp
  uint32_t epoch = 0;
  std::vector<Candidate> pool;        ///< beam, sorted by (dist_sq, id)
  std::vector<uint32_t> gather_ids;   ///< unvisited neighbors of one hop
  std::vector<uint32_t> gather_dist;  ///< their batched distances
  std::vector<Candidate> visited;     ///< expanded nodes (build pruning)
};

/// The calling thread's scratch (thread-local, lazily created).
VamanaScratch* ThreadLocalVamanaScratch();

/// Graph ANN index over a snapshot of fingerprint records: beam search
/// from a medoid entry point over a degree-bounded proximity graph, with
/// every candidate set scored through the batched gather kernels of
/// core/scan_kernel.h. Queries are approximate — the recall contract at
/// the benchmarked operating points lives in BENCH_ann.json and is floored
/// by tests/backend_parity_test.cc (like the LSH baseline). StatQuery is
/// answered as a range query at the equal-expectation radius; matches are
/// always exact-distance filtered (no false positives), only misses are
/// possible.
class VamanaIndex : public Searcher {
 public:
  VamanaIndex(std::vector<FingerprintRecord> records,
              const VamanaOptions& options);

  size_t size() const { return block_.size(); }
  const VamanaOptions& options() const { return options_; }
  uint32_t medoid() const { return medoid_; }
  /// Effective degree bound (min(graph_degree, n - 1)).
  uint32_t degree_bound() const { return degree_bound_; }
  /// Whether construction loaded the graph blob instead of building.
  bool loaded_from_blob() const { return loaded_from_blob_; }

  /// Out-neighbors of `node`, for tests and diagnostics.
  std::vector<uint32_t> Neighbors(uint32_t node) const;

  /// Range query at an explicit beam width (the Searcher interface uses
  /// options().beam_width); the equal-recall harness sweeps this.
  QueryResult RangeQueryWithBeam(const fp::Fingerprint& query, double epsilon,
                                 int beam) const;

  /// Serializes the graph (header, parameters, record digest, adjacency,
  /// CRC) to `path`. The vectors are not stored — the blob only ever pairs
  /// with the records that produced its digest.
  Status SaveGraph(const std::string& path) const;

  // ---- Searcher interface ----
  const char* backend_name() const override { return "vamana"; }
  /// The beam search at options().beam_width.
  QueryResult BallQuery(const fp::Fingerprint& query,
                        double epsilon) const override;
  SearcherStats Stats() const override;
  uint64_t ApproxBytes() const override;

 private:
  /// Greedy beam search toward `query_bytes` (fp::kDims exact-domain
  /// bytes). Returns the number of beam expansions; `on_scored` sees every
  /// (node, exact integer squared distance) pair exactly once. When
  /// `collect_visited` the expanded nodes land in scratch->visited in
  /// expansion order (the RobustPrune candidate pool of the build).
  template <typename OnScored>
  uint64_t BeamSearch(const uint8_t* query_bytes, int beam,
                      bool collect_visited, VamanaScratch* scratch,
                      OnScored&& on_scored) const;

  QueryResult RangeQueryImpl(const fp::Fingerprint& query, double epsilon,
                             int beam) const;

  void Build();
  Status LoadGraph(const std::string& path);

  /// alpha-RobustPrune of `candidates` (sorted by distance from `p`) down
  /// to the degree bound, using exact-domain bytes at `base`.
  void RobustPrune(uint32_t p, double alpha, const uint8_t* base,
                   std::vector<VamanaScratch::Candidate>* candidates,
                   std::vector<uint32_t>* out) const;

  VamanaOptions options_;
  DescriptorBlock block_;        ///< the records
  uint32_t digest_ = 0;          ///< CRC of the input records (blob check)
  uint32_t degree_bound_ = 0;
  uint32_t medoid_ = 0;
  bool loaded_from_blob_ = false;
  std::vector<uint32_t> degree_;  ///< out-degree per node
  std::vector<uint32_t> adj_;     ///< n * degree_bound_ neighbor ids
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_VAMANA_H_
