#ifndef S3VCD_CORE_EXTERNAL_BUILDER_H_
#define S3VCD_CORE_EXTERNAL_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/record.h"
#include "fingerprint/fingerprint.h"
#include "util/status.h"

namespace s3vcd::core {

/// Options of the external (larger-than-RAM) database build.
struct ExternalBuilderOptions {
  /// Records buffered in memory before a sorted run is spilled to disk.
  /// The paper's own database (13 GB for 10,000 hours) cannot be sorted in
  /// RAM; this is the standard external merge-sort answer.
  size_t max_records_in_memory = 1 << 20;
  /// Directory for the temporary run files (removed by Finish).
  std::string temp_dir = "/tmp";
};

/// Builds a FingerprintDatabase file of unbounded size with bounded memory:
/// accumulate -> spill sorted runs -> k-way merge into the final file. Runs
/// are spilled in arrival order and the merge breaks code ties by run, so
/// records keep arrival order within a code and the file is byte for byte
/// the one DatabaseBuilder::Build + SaveToFile writes. The
/// result can be served directly by PseudoDiskSearcher without ever fitting
/// in RAM, or loaded normally when it does fit.
///
/// Usage: Add(...) any number of times, then Finish() exactly once.
class ExternalDatabaseBuilder {
 public:
  ExternalDatabaseBuilder(std::string output_path,
                          const ExternalBuilderOptions& options = {});
  ~ExternalDatabaseBuilder();

  ExternalDatabaseBuilder(const ExternalDatabaseBuilder&) = delete;
  ExternalDatabaseBuilder& operator=(const ExternalDatabaseBuilder&) = delete;

  /// Buffers one record; spills a sorted run when the buffer is full.
  Status Add(const fp::Fingerprint& fingerprint, uint32_t id,
             uint32_t time_code, float x = 0, float y = 0);

  /// Adds every fingerprint of a video under one identifier.
  Status AddVideo(uint32_t id, const std::vector<fp::LocalFingerprint>& fps);

  uint64_t total_records() const { return total_records_; }
  /// Number of sorted runs spilled so far (excludes the in-memory tail).
  size_t runs_spilled() const { return run_paths_.size(); }

  /// Merges all runs plus the in-memory tail into the output file, fsyncs
  /// the file and its directory, and removes the temporaries — on success
  /// *and* on every error path (a failed merge also removes its partial
  /// output). The builder cannot be reused afterwards.
  Status Finish();

 private:
  struct CodedRecord {
    uint32_t code;
    FingerprintRecord record;
  };

  Status SpillRun();
  Status MergeRuns();
  void SortBuffer();

  std::string output_path_;
  ExternalBuilderOptions options_;
  std::vector<CodedRecord> buffer_;
  std::vector<std::string> run_paths_;
  uint64_t total_records_ = 0;
  bool finished_ = false;
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_EXTERNAL_BUILDER_H_
