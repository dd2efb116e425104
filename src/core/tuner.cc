#include "core/tuner.h"

#include <algorithm>

#include "util/logging.h"
#include "util/math.h"
#include "util/timer.h"

namespace s3vcd::core {

DepthTuningResult TuneDepth(const S3Index& index, const DistortionModel& model,
                            const std::vector<fp::Fingerprint>& sample_queries,
                            double alpha,
                            const std::vector<int>& candidate_depths,
                            int repetitions) {
  S3VCD_CHECK(!candidate_depths.empty());
  S3VCD_CHECK(!sample_queries.empty());
  S3VCD_CHECK(repetitions >= 1);
  DepthTuningResult result;
  double best_ms = -1;
  for (int depth : candidate_depths) {
    QueryOptions options;
    options.filter.depth = depth;
    options.filter.alpha = alpha;
    Stopwatch watch;
    for (int rep = 0; rep < repetitions; ++rep) {
      for (const fp::Fingerprint& q : sample_queries) {
        const QueryResult r = index.StatQuery(q, model, options);
        (void)r;
      }
    }
    const double avg_ms = watch.ElapsedMillis() /
                          (repetitions * sample_queries.size());
    result.profile.emplace_back(depth, avg_ms);
    if (best_ms < 0 || avg_ms < best_ms) {
      best_ms = avg_ms;
      result.best_depth = depth;
    }
  }
  return result;
}

std::vector<int> DefaultDepthCandidates(size_t db_size) {
  const int center = db_size < 2
                         ? 4
                         : Log2Exact(NextPowerOfTwo(db_size));
  std::vector<int> candidates;
  // The block filter serves depths up to D (FilterOptions::depth).
  const int max_depth = fp::kDims;
  for (int p = std::min(std::max(2, center - 6), max_depth);
       p <= std::min(max_depth, center + 4); p += 2) {
    candidates.push_back(p);
  }
  return candidates;
}

}  // namespace s3vcd::core
