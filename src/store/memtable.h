#ifndef S3VCD_STORE_MEMTABLE_H_
#define S3VCD_STORE_MEMTABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/descriptor_block.h"
#include "fingerprint/fingerprint.h"
#include "util/bitkey.h"

namespace s3vcd::store {

/// One key-sorted run of a Memtable: a window of its SoA columns and the
/// parallel keys. It answers the same questions as a SegmentReader
/// (min/max key, ResolveRange, View), so SegmentSearcher scans a buffered
/// run exactly the way it scans an on-disk segment. Valid until the next
/// mutation of the memtable.
class MemtableRun {
 public:
  MemtableRun(core::DescriptorView view, const BitKey* keys)
      : view_(view), keys_(keys) {}

  size_t size() const { return view_.count; }
  bool empty() const { return view_.count == 0; }
  const BitKey& min_key() const { return keys_[0]; }
  const BitKey& max_key() const { return keys_[view_.count - 1]; }
  core::DescriptorView View() const { return view_; }

  /// Resolves a curve-key range [begin, end) to run indices [first, last);
  /// a numerically zero `end` wraps to the top of the key space (same
  /// convention as SegmentReader::ResolveRange).
  std::pair<size_t, size_t> ResolveRange(const BitKey& begin,
                                         const BitKey& end) const;

 private:
  core::DescriptorView view_;
  const BitKey* keys_;
};

/// The segment store's write buffer: inserted records in one SoA
/// DescriptorBlock with their Hilbert keys alongside, held as key-sorted
/// runs. Each append starts a run of one record; whenever the two newest
/// runs are equally long they merge, so run lengths follow the binary
/// digits of size() (a binary counter: at most log2(size) + 1 runs, and a
/// record is moved O(log size) times in its life). Merges are linear and
/// the older run wins ties, so records with equal keys keep arrival order.
class Memtable {
 public:
  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  size_t num_runs() const { return run_starts_.size(); }
  /// Run i, oldest (and longest) first.
  MemtableRun run(size_t i) const;

  void Append(const fp::Fingerprint& descriptor, uint32_t id,
              uint32_t time_code, float x, float y, const BitKey& key);

  /// Merges every run into one, after which block() and keys() are sorted
  /// by key in arrival order among equal keys: the layout a segment is
  /// written from.
  void MergeAll();
  const core::DescriptorBlock& block() const { return block_; }
  const std::vector<BitKey>& keys() const { return keys_; }

  void Clear();
  uint64_t MemoryBytes() const {
    return block_.MemoryBytes() + keys_.size() * sizeof(BitKey);
  }

 private:
  /// Merges the two newest runs into one.
  void MergeLastTwo();

  core::DescriptorBlock block_;
  std::vector<BitKey> keys_;
  /// First record of each run; runs are contiguous and ordered by age.
  std::vector<size_t> run_starts_;
  /// Merge output, kept to reuse its capacity until the next Clear().
  core::DescriptorBlock merged_;
  std::vector<BitKey> merged_keys_;
};

}  // namespace s3vcd::store

#endif  // S3VCD_STORE_MEMTABLE_H_
