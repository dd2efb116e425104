#include "core/lsh.h"

#include <cmath>

#include "core/scan_kernel.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/timer.h"

namespace s3vcd::core {

LshIndex::LshIndex(std::vector<FingerprintRecord> records,
                   const LshOptions& options)
    : options_(options) {
  S3VCD_CHECK(options.num_tables >= 1);
  S3VCD_CHECK(options.hashes_per_table >= 1);
  S3VCD_CHECK(options.bucket_width > 0);
  block_.Reserve(records.size());
  for (const FingerprintRecord& r : records) {
    block_.AppendRecord(r);
  }
  Rng rng(options.seed);
  const int total_hashes = options.num_tables * options.hashes_per_table;
  projections_.resize(total_hashes);
  offsets_.resize(total_hashes);
  for (int h = 0; h < total_hashes; ++h) {
    for (int j = 0; j < fp::kDims; ++j) {
      projections_[h][j] = static_cast<float>(rng.Gaussian(0, 1));
    }
    offsets_[h] = static_cast<float>(rng.Uniform(0, options.bucket_width));
  }
  tables_.resize(options.num_tables);
  for (uint32_t i = 0; i < block_.size(); ++i) {
    for (int t = 0; t < options.num_tables; ++t) {
      tables_[t][BucketOf(t, block_.descriptor(i))].push_back(i);
    }
  }
}

uint64_t LshIndex::BucketOf(int table, const uint8_t* v) const {
  uint64_t key = 0xcbf29ce484222325ull;  // FNV-1a combine of the k slots
  for (int i = 0; i < options_.hashes_per_table; ++i) {
    const int h = table * options_.hashes_per_table + i;
    double dot = offsets_[h];
    for (int j = 0; j < fp::kDims; ++j) {
      dot += projections_[h][j] * static_cast<double>(v[j]);
    }
    const auto slot = static_cast<int64_t>(
        std::floor(dot / options_.bucket_width));
    key ^= static_cast<uint64_t>(slot) + 0x9e3779b97f4a7c15ull + (key << 6) +
           (key >> 2);
  }
  return key;
}

QueryResult LshIndex::RangeQuery(const fp::Fingerprint& query,
                                 double epsilon) const {
  QueryResult result;
  Stopwatch watch;
  // Candidate gathering with per-query dedup by record index.
  std::vector<uint32_t> candidates;
  std::vector<bool> seen(block_.size(), false);
  for (int t = 0; t < options_.num_tables; ++t) {
    const auto it = tables_[t].find(BucketOf(t, query.data()));
    if (it == tables_[t].end()) {
      continue;
    }
    for (uint32_t idx : it->second) {
      if (!seen[idx]) {
        seen[idx] = true;
        candidates.push_back(idx);
      }
    }
  }
  result.stats.selection_ns = watch.ElapsedNanos();

  watch.Reset();
  const RefineSpec spec(RefinementMode::kRadiusFilter, epsilon, nullptr);
  for (uint32_t idx : candidates) {
    RefineRecord(query, block_, idx, spec, &result);
  }
  result.stats.refine_ns = watch.ElapsedNanos();
  RecordQueryMetrics(QueryKind::kRange, result.stats, result.matches.size());
  return result;
}

double LshIndex::TableCollisionProbability(double dist) const {
  // p(d) for one projection (Datar et al.): with c = d / w,
  // p = 1 - 2 Phi(-1/c) - (2 c / sqrt(2 pi)) (1 - exp(-1 / (2 c^2))),
  // and a table of k concatenated hashes collides with p^k.
  if (dist <= 0) {
    return 1.0;
  }
  const double c = dist / options_.bucket_width;
  const double p = 1.0 - 2.0 * GaussianCdf(-1.0 / c, 0, 1) -
                   (2.0 * c / std::sqrt(2.0 * M_PI)) *
                       (1.0 - std::exp(-1.0 / (2.0 * c * c)));
  return std::pow(std::max(0.0, p), options_.hashes_per_table);
}

}  // namespace s3vcd::core
