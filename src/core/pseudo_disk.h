#ifndef S3VCD_CORE_PSEUDO_DISK_H_
#define S3VCD_CORE_PSEUDO_DISK_H_

#include <string>
#include <utility>
#include <vector>

#include "core/distortion_model.h"
#include "core/filter.h"
#include "core/record.h"
#include "core/sorted_run.h"
#include "fingerprint/fingerprint.h"
#include "util/status.h"

namespace s3vcd::core {

/// Options of the pseudo-disk strategy (paper Section IV-B), used when the
/// fingerprint database exceeds primary storage: the Hilbert curve is split
/// into 2^r regular sections, N_sig queries are filtered up front, and the
/// sections are loaded into memory one at a time while every query's
/// refinement ranges inside the section are scanned.
struct PseudoDiskOptions {
  /// log2 of the number of curve sections (r). Must satisfy 0 <= r <= p.
  int section_depth = 4;
  /// Partition depth p of the statistical filtering, in [1, D].
  int query_depth = 12;
  double alpha = 0.8;
};

/// Aggregate timing of one batch, decomposing eq. (5):
/// T_tot = T + T_load / N_sig.
struct PseudoDiskBatchStats {
  double filter_seconds = 0;
  double load_seconds = 0;
  double refine_seconds = 0;
  uint64_t records_loaded = 0;
  uint64_t records_scanned = 0;
  uint64_t sections_loaded = 0;
  size_t num_queries = 0;

  /// Average per-query total response time in milliseconds.
  double AverageTotalMillis() const {
    return num_queries == 0
               ? 0.0
               : (filter_seconds + load_seconds + refine_seconds) * 1e3 /
                     static_cast<double>(num_queries);
  }
};

/// Searches a database file section by section without ever holding more
/// than one section of records in memory (only the depth-p prefix table is
/// resident). Matches of query i are returned in results[i].
class PseudoDiskSearcher {
 public:
  /// Opens a database file written by FingerprintDatabase::SaveToFile and
  /// builds the offset table at `options.query_depth` with one streaming
  /// metadata pass (records are not retained).
  static Result<PseudoDiskSearcher> Open(const std::string& db_path,
                                         const PseudoDiskOptions& options);

  /// Executes a batch of statistical queries (one pass over the sections).
  Status SearchBatch(const std::vector<fp::Fingerprint>& queries,
                     const DistortionModel& model,
                     std::vector<std::vector<Match>>* results,
                     PseudoDiskBatchStats* stats) const;

  uint64_t num_records() const { return table_.size(); }
  const PseudoDiskOptions& options() const { return options_; }

 private:
  PseudoDiskSearcher(std::string path, PseudoDiskOptions options)
      : path_(std::move(path)), options_(options) {}

  std::string path_;
  PseudoDiskOptions options_;
  /// Record offsets of the 2^p depth-p prefixes of the database file.
  PrefixTable table_;
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_PSEUDO_DISK_H_
