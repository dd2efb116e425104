// Ablation of the paper's Section IV design choice: indexing along a
// Hilbert curve rather than the simpler Z-order (Morton) interleaving.
// Both partitions produce hyper-rectangular blocks and admit the same
// statistical filtering rules; the difference is the curve's locality:
// Hilbert keeps the selected region in fewer, longer sections of the
// sorted file, which is exactly what bounds "the number and the dispersion
// of these sections reducing the number of memory accesses" (Section IV).

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "util/table.h"
#include "util/timer.h"

namespace s3vcd::bench {
namespace {

int Main() {
  PrintHeader("ablation_curve_clustering",
              "Hilbert vs Z-order: fragmentation of the selected region");
  const uint64_t kDbSize = Scaled(400000);
  const int kQueries = static_cast<int>(Scaled(150));
  const double kSigma = 18.0;

  Corpus corpus = BuildCorpus(6, kDbSize, 10100);
  const core::S3Index& index = *corpus.index;
  const core::ZOrderBlockFilter zfilter;
  const core::GaussianDistortionModel model(kSigma);
  Rng rng(665);

  // The Z-order codes of the same records, sorted, to count scanned
  // records: an orthant's Z-order code is its sign bits in axis order.
  std::vector<uint32_t> zcodes;
  zcodes.reserve(index.database().size());
  for (size_t i = 0; i < index.database().size(); ++i) {
    const auto& d = index.database().record(i).descriptor;
    uint32_t code = 0;
    for (int j = 0; j < fp::kDims; ++j) {
      code = (code << 1) | (d[j] >> 7);
    }
    zcodes.push_back(code);
  }
  std::sort(zcodes.begin(), zcodes.end());
  auto z_records_in = [&](uint32_t begin, uint32_t end) {
    const auto lo = std::lower_bound(zcodes.begin(), zcodes.end(), begin);
    const auto hi = std::lower_bound(zcodes.begin(), zcodes.end(), end);
    return static_cast<uint64_t>(hi - lo);
  };

  std::vector<fp::Fingerprint> queries;
  for (int i = 0; i < kQueries; ++i) {
    const size_t idx = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(index.database().size()) - 1));
    queries.push_back(core::DistortFingerprint(
        index.database().record(idx).descriptor, kSigma, &rng));
  }

  Table table({"alpha_pct", "depth_p", "curve", "avg_blocks", "avg_ranges",
               "avg_records_scanned"});
  for (double alpha : {0.5, 0.8, 0.95}) {
    for (int depth : {12, 16, 20}) {
      core::FilterOptions options;
      options.alpha = alpha;
      options.depth = depth;
      double h_blocks = 0;
      double h_ranges = 0;
      double h_scanned = 0;
      double z_blocks = 0;
      double z_ranges = 0;
      double z_scanned = 0;
      for (const auto& q : queries) {
        const core::BlockSelection hs =
            index.filter().SelectStatistical(q, model, options);
        h_blocks += static_cast<double>(hs.num_blocks);
        h_ranges += static_cast<double>(hs.ranges.size());
        for (const auto& [begin, end] : hs.ranges) {
          const auto [first, last] = index.run().Resolve(begin, end);
          h_scanned += static_cast<double>(last - first);
        }
        const core::BlockSelection zs =
            zfilter.SelectStatistical(q, model, options);
        z_blocks += static_cast<double>(zs.num_blocks);
        z_ranges += static_cast<double>(zs.ranges.size());
        for (const auto& [begin, end] : zs.ranges) {
          z_scanned += static_cast<double>(z_records_in(begin, end));
        }
      }
      table.AddRow()
          .Add(100 * alpha, 3)
          .Add(static_cast<int64_t>(depth))
          .Add("hilbert")
          .Add(h_blocks / kQueries, 4)
          .Add(h_ranges / kQueries, 4)
          .Add(h_scanned / kQueries, 4);
      table.AddRow()
          .Add(100 * alpha, 3)
          .Add(static_cast<int64_t>(depth))
          .Add("zorder")
          .Add(z_blocks / kQueries, 4)
          .Add(z_ranges / kQueries, 4)
          .Add(z_scanned / kQueries, 4);
    }
  }
  table.Print("ablation_curve_clustering");
  std::printf(
      "finding: at D=20 and practical depths (each axis split at most\n"
      "once) Hilbert and Z-order fragment almost identically -- the classic\n"
      "Hilbert locality advantage lives in low dimension (see the 2-D test\n"
      "in zorder_test). The paper's operational reasons for Hilbert remain\n"
      "(no Lawder state diagrams, O(1) memory, spherical queries possible).\n");
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main() { return s3vcd::bench::Main(); }
