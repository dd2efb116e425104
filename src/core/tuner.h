#ifndef S3VCD_CORE_TUNER_H_
#define S3VCD_CORE_TUNER_H_

#include <vector>

#include "core/distortion_model.h"
#include "core/index.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

/// Outcome of the partition-depth tuning of Section IV-A: the response time
/// T(p) = Tf(p) + Tr(p) has a single minimum p_min, learned at the start of
/// the retrieval stage by timing sample queries.
struct DepthTuningResult {
  int best_depth = 0;
  /// (depth, average total milliseconds per query) for every probed depth.
  std::vector<std::pair<int, double>> profile;
};

/// Measures the average statistical-query time over `sample_queries` for
/// each candidate depth and returns the fastest. Candidates must be
/// non-empty; repeats each measurement `repetitions` times.
DepthTuningResult TuneDepth(const S3Index& index, const DistortionModel& model,
                            const std::vector<fp::Fingerprint>& sample_queries,
                            double alpha,
                            const std::vector<int>& candidate_depths,
                            int repetitions = 1);

/// Convenience: a geometric ladder of candidate depths suited to a database
/// of `db_size` records (p around log2(db_size) +- a few levels), capped
/// at D.
std::vector<int> DefaultDepthCandidates(size_t db_size);

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_TUNER_H_
