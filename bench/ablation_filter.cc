// Ablation bench (DESIGN.md): design choices of the S3 filtering step.
//  1. The library's closed-form B_alpha (the most probable orthants, an
//     exact minimal set) vs the paper's threshold iteration on eq. (4),
//     implemented below over the Hilbert block tree.
//  2. Partition depth p sensitivity around the tuned optimum, i.e. the
//     T(p) = Tf(p) + Tr(p) trade-off of Section IV-A, over the depths the
//     filter serves (up to D = 20).

#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/tuner.h"
#include "hilbert/block_tree.h"
#include "util/table.h"
#include "util/timer.h"

namespace s3vcd::bench {
namespace {

struct ThresholdSelection {
  double mass = 0;
  uint64_t blocks = 0;
  uint64_t nodes = 0;
};

// The paper's eq. (4): bisection on log t for the largest threshold t whose
// block set {B : P(B) > t} still reaches alpha, each evaluation a DFS of
// the block tree pruned at probability t. A block's probability is the
// product of per-axis CDF differences at its cell boundaries, tabulated on
// first use for the query. An evaluation that would select more than 2^16
// blocks stops and counts as reaching alpha.
ThresholdSelection ThresholdSearch(const hilbert::BlockTree& tree,
                                   const fp::Fingerprint& q,
                                   const core::DistortionModel& model,
                                   double alpha, int depth) {
  using Node = hilbert::BlockTree::Node;
  const hilbert::HilbertCurve& curve = tree.curve();
  const uint32_t grid = curve.grid_size();
  std::vector<double> cdf(static_cast<size_t>(grid + 1) * curve.dims(),
                          std::nan(""));
  const auto boundary_cdf = [&](int j, uint32_t b) {
    double& v = cdf[static_cast<size_t>(j) * (grid + 1) + b];
    if (std::isnan(v)) {
      const double x =
          b == 0 ? -1e30
                 : (b == grid ? 1e30
                              : static_cast<double>(b << (8 - curve.order())) -
                                    0.5);
      v = model.ComponentCdf(j, x, static_cast<double>(q[j]));
    }
    return v;
  };
  const auto prob = [&](const Node& n) {
    double p = 1.0;
    for (int j = 0; j < curve.dims(); ++j) {
      p *= boundary_cdf(j, n.hi[j]) - boundary_cdf(j, n.lo[j]);
    }
    return p;
  };
  ThresholdSelection result;
  std::vector<std::pair<double, Node>> stack;
  const auto evaluate = [&](double t, ThresholdSelection* out) {
    *out = ThresholdSelection{0, 0, out->nodes};
    stack.clear();
    const Node root = tree.Root();
    stack.emplace_back(prob(root), root);
    while (!stack.empty() && out->blocks < (uint64_t{1} << 16)) {
      const auto [p, node] = stack.back();
      stack.pop_back();
      if (p <= t) {
        continue;
      }
      if (node.depth == depth) {
        out->mass += p;
        ++out->blocks;
        continue;
      }
      Node c0;
      Node c1;
      tree.Split(node, &c0, &c1);
      out->nodes += 2;
      stack.emplace_back(prob(c0), c0);
      stack.emplace_back(prob(c1), c1);
    }
    return out->mass >= alpha || out->blocks >= (uint64_t{1} << 16);
  };
  double log_lo = std::log(1e-15);  // small t: many blocks, high mass
  double log_hi = 0.0;              // t = 1: no block
  for (int iter = 0; iter < 24; ++iter) {
    const double log_mid = 0.5 * (log_lo + log_hi);
    if (evaluate(std::exp(log_mid), &result)) {
      log_lo = log_mid;  // t can grow
    } else {
      log_hi = log_mid;
    }
  }
  evaluate(std::exp(log_lo), &result);
  return result;
}

int Main() {
  PrintHeader("ablation_filter", "filter algorithm / index table / depth");
  const uint64_t kDbSize = Scaled(400000);
  const int kQueries = static_cast<int>(Scaled(200));
  const double kSigma = 18.0;
  const double kAlpha = 0.8;

  Corpus corpus = BuildCorpus(6, kDbSize, 6100);
  const core::S3Index& index = *corpus.index;
  const core::GaussianDistortionModel model(kSigma);
  Rng rng(661);

  std::vector<fp::Fingerprint> queries;
  for (int i = 0; i < kQueries; ++i) {
    const size_t idx = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(index.database().size()) - 1));
    queries.push_back(core::DistortFingerprint(
        index.database().record(idx).descriptor, kSigma, &rng));
  }

  // 1. Filter algorithm. nodes_visited counts enumerator pops for the
  // closed form and block-tree nodes for the threshold search.
  {
    Table table({"algorithm", "avg_ms", "avg_blocks", "avg_mass",
                 "avg_nodes_visited"});
    const int kDepth = 14;
    const auto add_row = [&](const char* name, double ms, uint64_t blocks,
                             double mass, uint64_t nodes) {
      table.AddRow()
          .Add(name)
          .Add(ms / kQueries, 4)
          .Add(static_cast<double>(blocks) / kQueries, 4)
          .Add(mass / kQueries, 4)
          .Add(static_cast<double>(nodes) / kQueries, 4);
    };
    {
      core::FilterOptions options;
      options.alpha = kAlpha;
      options.depth = kDepth;
      Stopwatch watch;
      double mass = 0;
      uint64_t blocks = 0;
      uint64_t nodes = 0;
      for (const auto& q : queries) {
        const core::BlockSelection sel =
            index.filter().SelectStatistical(q, model, options);
        mass += sel.probability_mass;
        blocks += sel.num_blocks;
        nodes += sel.nodes_visited;
      }
      add_row("closed_form", watch.ElapsedMillis(), blocks, mass, nodes);
    }
    {
      const hilbert::HilbertCurve curve(fp::kDims, 8);
      const hilbert::BlockTree tree(curve);
      Stopwatch watch;
      ThresholdSelection total;
      for (const auto& q : queries) {
        const ThresholdSelection sel =
            ThresholdSearch(tree, q, model, kAlpha, kDepth);
        total.mass += sel.mass;
        total.blocks += sel.blocks;
        total.nodes += sel.nodes;
      }
      add_row("threshold_search", watch.ElapsedMillis(), total.blocks,
              total.mass, total.nodes);
    }
    table.Print("ablation_filter_algorithm");
  }

  // 2. Depth sensitivity: the T(p) curve of Section IV-A.
  {
    std::vector<int> depths;
    for (int p = 6; p <= fp::kDims; p += 2) {
      depths.push_back(p);
    }
    const core::DepthTuningResult tuned =
        core::TuneDepth(index, model, queries, kAlpha, depths);
    Table table({"depth_p", "avg_total_ms"});
    for (const auto& [p, ms] : tuned.profile) {
      table.AddRow().Add(static_cast<int64_t>(p)).Add(ms, 4);
    }
    table.Print("ablation_depth_profile");
    std::printf("tuned p_min = %d (paper: single-minimum T(p) curve)\n",
                tuned.best_depth);
  }
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main() { return s3vcd::bench::Main(); }
