#include "core/knn.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "hilbert/block_tree.h"
#include "util/logging.h"
#include "util/timer.h"

namespace s3vcd::core {

namespace {

using hilbert::BlockTree;

double BoxMinSquaredDistance(const BlockTree::Node& node,
                             const fp::Fingerprint& query) {
  double acc = 0;
  for (int j = 0; j < fp::kDims; ++j) {
    const double q = query[j];
    const double lo = static_cast<double>(node.lo[j]);
    const double hi = static_cast<double>(node.hi[j]) - 1.0;
    if (q < lo) {
      acc += (lo - q) * (lo - q);
    } else if (q > hi) {
      acc += (q - hi) * (q - hi);
    }
  }
  return acc;
}

struct FrontierEntry {
  double min_dist_sq;
  BlockTree::Node node;
};
struct FrontierGreater {
  bool operator()(const FrontierEntry& a, const FrontierEntry& b) const {
    return a.min_dist_sq > b.min_dist_sq;
  }
};

// Max-heap of the best k matches by distance.
struct ResultGreater {
  bool operator()(const Match& a, const Match& b) const {
    return a.distance < b.distance;
  }
};

}  // namespace

QueryResult KnnQuery(const S3Index& index, const fp::Fingerprint& query,
                     const KnnOptions& options) {
  S3VCD_CHECK(options.k >= 1);
  QueryResult result;
  const FingerprintDatabase& db = index.database();
  const SortedRun run = index.run();
  if (db.empty()) {
    RecordQueryMetrics(QueryKind::kKnn, result.stats, 0);
    return result;
  }
  Stopwatch watch;
  // Fingerprint bytes are the grid coordinates of the order-8 curve.
  const hilbert::HilbertCurve curve(fp::kDims, 8);
  const BlockTree tree(curve);
  const int depth = std::clamp(options.depth, 1, kCodeBits);

  std::priority_queue<FrontierEntry, std::vector<FrontierEntry>,
                      FrontierGreater>
      frontier;
  frontier.push({0.0, tree.Root()});
  result.stats.nodes_visited = 1;

  std::priority_queue<Match, std::vector<Match>, ResultGreater> best;
  auto kth_dist = [&]() {
    return best.size() < static_cast<size_t>(options.k)
               ? std::numeric_limits<float>::infinity()
               : best.top().distance;
  };

  uint64_t blocks_scanned = 0;
  while (!frontier.empty()) {
    const FrontierEntry top = frontier.top();
    const double kth = kth_dist();
    // Exactness: every unexplored region is at least this far away.
    if (std::sqrt(top.min_dist_sq) >= kth) {
      break;
    }
    frontier.pop();
    if (top.node.depth == depth) {
      // Leaf block: scan its code range.
      const auto prefix = static_cast<uint32_t>(top.node.prefix.low64());
      const auto [first, last] = run.Resolve(
          prefix << (kCodeBits - depth), (prefix + 1) << (kCodeBits - depth));
      ++result.stats.ranges_scanned;
      ++blocks_scanned;
      ++result.stats.blocks_selected;
      for (size_t i = first; i < last; ++i) {
        const FingerprintRecord& rec = db.record(i);
        ++result.stats.records_scanned;
        const double dist =
            std::sqrt(fp::SquaredDistance(query, rec.descriptor));
        if (dist < kth_dist()) {
          best.push({rec.id, rec.time_code, static_cast<float>(dist),
                     rec.x, rec.y});
          if (best.size() > static_cast<size_t>(options.k)) {
            best.pop();
          }
        }
      }
      if (options.max_blocks != 0 && blocks_scanned >= options.max_blocks) {
        break;  // approximate early stop
      }
      continue;
    }
    BlockTree::Node c0;
    BlockTree::Node c1;
    tree.Split(top.node, &c0, &c1);
    result.stats.nodes_visited += 2;
    frontier.push({BoxMinSquaredDistance(c0, query), c0});
    frontier.push({BoxMinSquaredDistance(c1, query), c1});
  }

  result.matches.resize(best.size());
  for (size_t i = result.matches.size(); i-- > 0;) {
    result.matches[i] = best.top();
    best.pop();
  }
  result.stats.refine_ns = watch.ElapsedNanos();
  RecordQueryMetrics(QueryKind::kKnn, result.stats, result.matches.size());
  return result;
}

}  // namespace s3vcd::core
