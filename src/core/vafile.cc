#include "core/vafile.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "core/scan_kernel.h"
#include "util/logging.h"
#include "util/timer.h"

namespace s3vcd::core {

VAFile::VAFile(std::vector<FingerprintRecord> records,
               const VAFileOptions& options)
    : options_(options), slices_(1 << options.bits_per_dim) {
  S3VCD_CHECK(options.bits_per_dim >= 1 && options.bits_per_dim <= 8);
  block_.Reserve(records.size());
  for (const FingerprintRecord& r : records) {
    block_.AppendRecord(r);
  }
  // Slice boundaries.
  for (int j = 0; j < fp::kDims; ++j) {
    boundaries_[j].resize(slices_ + 1);
    boundaries_[j][0] = 0.0;
    boundaries_[j][slices_] = 256.0;
  }
  if (options_.quantile_boundaries && !block_.empty()) {
    std::vector<uint8_t> column(block_.size());
    for (int j = 0; j < fp::kDims; ++j) {
      for (size_t i = 0; i < block_.size(); ++i) {
        column[i] = block_.descriptor(i)[j];
      }
      std::sort(column.begin(), column.end());
      for (int s = 1; s < slices_; ++s) {
        const size_t rank = block_.size() * static_cast<size_t>(s) /
                            static_cast<size_t>(slices_);
        // Boundaries must strictly increase; nudge past duplicates.
        double b = static_cast<double>(column[rank]);
        b = std::max(b, boundaries_[j][s - 1] + 256.0 / (slices_ * 4.0));
        boundaries_[j][s] = std::min(b, 256.0 - (slices_ - s) * 0.001);
      }
    }
  } else {
    const double width = 256.0 / slices_;
    for (int j = 0; j < fp::kDims; ++j) {
      for (int s = 1; s < slices_; ++s) {
        boundaries_[j][s] = s * width;
      }
    }
  }
  // Approximations.
  cells_.resize(block_.size() * fp::kDims);
  for (size_t i = 0; i < block_.size(); ++i) {
    for (int j = 0; j < fp::kDims; ++j) {
      cells_[i * fp::kDims + j] =
          static_cast<uint8_t>(SliceOf(j, block_.descriptor(i)[j]));
    }
  }
}

int VAFile::SliceOf(int dim, uint8_t value) const {
  const auto& b = boundaries_[dim];
  // First boundary strictly greater than value, minus one.
  const auto it = std::upper_bound(b.begin() + 1, b.end(),
                                   static_cast<double>(value));
  int slice = static_cast<int>(it - b.begin()) - 1;
  return std::clamp(slice, 0, slices_ - 1);
}

void VAFile::BuildBoundTables(
    const fp::Fingerprint& query,
    std::array<std::vector<double>, fp::kDims>* lower_sq,
    std::array<std::vector<double>, fp::kDims>* upper_sq) const {
  for (int j = 0; j < fp::kDims; ++j) {
    auto& lo = (*lower_sq)[j];
    auto& hi = (*upper_sq)[j];
    lo.resize(slices_);
    hi.resize(slices_);
    const double q = query[j];
    for (int s = 0; s < slices_; ++s) {
      // Slice values lie in [a, b); using the open edge b keeps the lower
      // bound conservative for arbitrarily narrow quantile slices.
      const double a = boundaries_[j][s];
      const double b = boundaries_[j][s + 1];
      double lower = 0;
      if (q < a) {
        lower = a - q;
      } else if (q > b) {
        lower = q - b;
      }
      const double upper = std::max(std::abs(q - a), std::abs(q - b));
      lo[s] = lower * lower;
      hi[s] = upper * upper;
    }
  }
}

QueryResult VAFile::RangeQuery(const fp::Fingerprint& query,
                               double epsilon) const {
  QueryResult result;
  Stopwatch watch;
  std::array<std::vector<double>, fp::kDims> lower_sq;
  std::array<std::vector<double>, fp::kDims> upper_sq;
  BuildBoundTables(query, &lower_sq, &upper_sq);
  result.stats.selection_ns = watch.ElapsedNanos();

  watch.Reset();
  const double eps_sq = epsilon * epsilon;
  const RefineSpec spec(RefinementMode::kRadiusFilter, epsilon, nullptr);
  for (size_t i = 0; i < block_.size(); ++i) {
    const uint8_t* cell = &cells_[i * fp::kDims];
    double lb = 0;
    for (int j = 0; j < fp::kDims; ++j) {
      lb += lower_sq[j][cell[j]];
      if (lb > eps_sq) {
        break;
      }
    }
    if (lb > eps_sq) {
      continue;  // filtered by the approximation alone
    }
    // Phase 2 (exact vector access) counts as a scanned record.
    RefineRecord(query, block_, i, spec, &result);
  }
  result.stats.refine_ns = watch.ElapsedNanos();
  RecordQueryMetrics(QueryKind::kRange, result.stats, result.matches.size());
  return result;
}

QueryResult VAFile::KnnQuery(const fp::Fingerprint& query, int k) const {
  S3VCD_CHECK(k >= 1);
  QueryResult result;
  Stopwatch watch;
  std::array<std::vector<double>, fp::kDims> lower_sq;
  std::array<std::vector<double>, fp::kDims> upper_sq;
  BuildBoundTables(query, &lower_sq, &upper_sq);

  // Phase 1: compute bounds, keep candidates whose lower bound beats the
  // running kth-smallest upper bound.
  struct Candidate {
    double lb;
    uint32_t index;
  };
  std::priority_queue<double> kth_upper;  // max-heap of k smallest ubs
  std::vector<Candidate> candidates;
  candidates.reserve(256);
  for (size_t i = 0; i < block_.size(); ++i) {
    const uint8_t* cell = &cells_[i * fp::kDims];
    double lb = 0;
    double ub = 0;
    for (int j = 0; j < fp::kDims; ++j) {
      lb += lower_sq[j][cell[j]];
      ub += upper_sq[j][cell[j]];
    }
    const double cutoff = kth_upper.size() < static_cast<size_t>(k)
                              ? std::numeric_limits<double>::infinity()
                              : kth_upper.top();
    if (lb <= cutoff) {
      candidates.push_back({lb, static_cast<uint32_t>(i)});
      if (kth_upper.size() < static_cast<size_t>(k)) {
        kth_upper.push(ub);
      } else if (ub < kth_upper.top()) {
        kth_upper.pop();
        kth_upper.push(ub);
      }
    }
  }
  result.stats.selection_ns = watch.ElapsedNanos();

  // Phase 2: visit candidates by increasing lower bound; stop when the
  // next lower bound exceeds the kth exact distance found so far.
  watch.Reset();
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.lb < b.lb;
            });
  std::priority_queue<Match, std::vector<Match>,
                      decltype([](const Match& a, const Match& b) {
                        return a.distance < b.distance;
                      })>
      best;
  for (const Candidate& cand : candidates) {
    if (best.size() == static_cast<size_t>(k) &&
        std::sqrt(cand.lb) >= best.top().distance) {
      break;
    }
    ++result.stats.records_scanned;
    const size_t idx = cand.index;
    const float dist = static_cast<float>(std::sqrt(static_cast<double>(
        SquaredDistanceU32(query.data(), block_.descriptor(idx)))));
    const Match m{block_.id(idx), block_.time_code(idx), dist, block_.x(idx),
                  block_.y(idx)};
    if (best.size() < static_cast<size_t>(k)) {
      best.push(m);
    } else if (dist < best.top().distance) {
      best.pop();
      best.push(m);
    }
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
