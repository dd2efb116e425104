#ifndef S3VCD_STORE_MEMTABLE_H_
#define S3VCD_STORE_MEMTABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/descriptor_block.h"
#include "core/sorted_run.h"
#include "fingerprint/fingerprint.h"
#include "hilbert/hilbert_curve.h"
#include "util/bitkey.h"

namespace s3vcd::store {

/// The segment store's write buffer: inserted records in one SoA
/// DescriptorBlock with their Hilbert keys alongside, held as key-sorted
/// runs. Each append starts a run of one record; whenever the two newest
/// runs are equally long they merge, so run lengths follow the binary
/// digits of size() (a binary counter: at most log2(size) + 1 runs, and a
/// record is moved O(log size) times in its life). Merges are linear and
/// the older run wins ties, so records with equal keys keep arrival order.
/// Each run carries its prefix table (core/sorted_run.h), rebuilt when a
/// merge produces it, so SegmentSearcher resolves a curve section in a
/// buffered run exactly the way it does in an on-disk segment.
class Memtable {
 public:
  /// Keys are positions on `curve`, which must outlive the memtable.
  explicit Memtable(const hilbert::HilbertCurve& curve) : curve_(&curve) {}

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  size_t num_runs() const { return run_starts_.size(); }
  /// Run i, oldest (and longest) first. Valid until the next mutation of
  /// the memtable.
  core::SortedRun run(size_t i) const;

  void Append(const fp::Fingerprint& descriptor, uint32_t id,
              uint32_t time_code, float x, float y, const BitKey& key);

  /// Merges every run into one, after which block() and keys() are sorted
  /// by key in arrival order among equal keys: the layout a segment is
  /// written from.
  void MergeAll();
  const core::DescriptorBlock& block() const { return block_; }
  const std::vector<BitKey>& keys() const { return keys_; }

  void Clear();
  /// Records, keys and the runs' prefix tables.
  uint64_t MemoryBytes() const;

 private:
  /// Merges the two newest runs into one, leaving its table stale.
  void MergeLastTwo();
  /// Builds the newest run's table: once per cascade of merges, not per
  /// merge.
  void IndexLastRun();

  core::DescriptorBlock block_;
  std::vector<BitKey> keys_;
  const hilbert::HilbertCurve* curve_;
  /// First record of each run; runs are contiguous and ordered by age.
  std::vector<size_t> run_starts_;
  /// Prefix table of each run, parallel to run_starts_.
  std::vector<core::PrefixTable> tables_;
  /// Merge output, kept to reuse its capacity until the next Clear().
  core::DescriptorBlock merged_;
  std::vector<BitKey> merged_keys_;
};

}  // namespace s3vcd::store

#endif  // S3VCD_STORE_MEMTABLE_H_
