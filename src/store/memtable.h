#ifndef S3VCD_STORE_MEMTABLE_H_
#define S3VCD_STORE_MEMTABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/descriptor_block.h"
#include "core/sorted_run.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::store {

/// The segment store's write buffer: inserted records in one SoA
/// DescriptorBlock with their orthant codes alongside, held as code-sorted
/// runs. Each append starts a run of one record; whenever the two newest
/// runs are equally long they merge, so run lengths follow the binary
/// digits of size() (a binary counter: at most log2(size) + 1 runs, and a
/// record is moved O(log size) times in its life). Merges are linear and
/// the older run wins ties, so records with equal codes keep arrival order.
/// A run of at least kMinIndexedRun records carries its prefix table
/// (core/sorted_run.h), built when a merge produces it, so SegmentSearcher
/// resolves a code range in it exactly the way it does in an on-disk
/// segment; a shorter run resolves by binary search and costs an insert no
/// table.
class Memtable {
 public:
  static constexpr size_t kMinIndexedRun = 1024;

  size_t size() const { return codes_.size(); }
  bool empty() const { return codes_.empty(); }
  size_t num_runs() const { return run_starts_.size(); }
  /// Run i, oldest (and longest) first. Valid until the next mutation of
  /// the memtable.
  core::SortedRun run(size_t i) const;

  /// Appends a record whose orthant code is `code`.
  void Append(const fp::Fingerprint& descriptor, uint32_t id,
              uint32_t time_code, float x, float y, uint32_t code);

  /// Merges every run into one, after which block() and codes() are sorted
  /// by code in arrival order among equal codes: the layout a segment is
  /// written from.
  void MergeAll();
  const core::DescriptorBlock& block() const { return block_; }
  const std::vector<uint32_t>& codes() const { return codes_; }

  void Clear();
  /// Records, codes and the runs' prefix tables.
  uint64_t MemoryBytes() const;

 private:
  /// Merges the two newest runs into one, dropping their tables.
  void MergeLastTwo();
  /// Builds the newest run's table if it is long enough and has none: once
  /// per cascade of merges, not per merge.
  void IndexLastRun();

  core::DescriptorBlock block_;
  std::vector<uint32_t> codes_;
  /// First record of each run; runs are contiguous and ordered by age.
  std::vector<size_t> run_starts_;
  /// Prefix tables of the leading runs, the ones of kMinIndexedRun records
  /// or more (runs shrink from oldest to newest).
  std::vector<core::PrefixTable> tables_;
  /// Merge output, kept to reuse its capacity until the next Clear().
  core::DescriptorBlock merged_;
  std::vector<uint32_t> merged_codes_;
};

}  // namespace s3vcd::store

#endif  // S3VCD_STORE_MEMTABLE_H_
