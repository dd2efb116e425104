#ifndef S3VCD_CORE_SORTED_RUN_H_
#define S3VCD_CORE_SORTED_RUN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/descriptor_block.h"
#include "core/filter.h"
#include "core/scan_kernel.h"
#include "core/searcher.h"
#include "fingerprint/fingerprint.h"
#include "hilbert/hilbert_curve.h"
#include "util/bitkey.h"

namespace s3vcd::core {

// Record order along the curve (paper Section IV), decided once for every
// store: the index, the segments, the memtable's runs and the pseudo-disk
// key records with CurveKey, index a key-sorted run with a PrefixTable and
// resolve a curve section to a record range through SortedRun::Resolve.

/// Hilbert key of a fingerprint: its bytes are grid coordinates, truncated
/// to their top curve.order() bits.
BitKey CurveKey(const hilbert::HilbertCurve& curve,
                const fp::Fingerprint& fingerprint);

/// Record offsets of the 2^t aligned key prefixes of one key-sorted run:
/// offset(b) is the first record whose depth-t prefix is >= b, offset(2^t)
/// the record count. Built in one streaming pass over the sorted keys.
class PrefixTable {
 public:
  /// t = clamp(ceil(log2 n), 1, D) for a run of n records: about one
  /// record per bucket.
  static int RunDepth(uint64_t n, const hilbert::HilbertCurve& curve);
  /// The table of `n` keys known to be sorted (checked), at RunDepth.
  static PrefixTable OfRun(const BitKey* keys, size_t n,
                           const hilbert::HilbertCurve& curve);

  /// Depth 0, no records: one bucket over the whole key space.
  PrefixTable() = default;
  /// Depth t in [0, key_bits], awaiting the run's keys.
  PrefixTable(int key_bits, int depth);

  /// Appends the run's next key; false, changing nothing, when it sorts
  /// below its predecessor.
  bool Append(const BitKey& key);
  /// Turns the per-prefix counts into offsets, after the last key.
  void Finish();

  int depth() const { return depth_; }
  uint64_t size() const { return size_; }
  uint64_t num_prefixes() const { return offsets_.size() - 1; }
  /// Depth-t prefix of `key`; 2^t from the top of the key space on.
  uint64_t Prefix(const BitKey& key) const {
    const BitKey p = key >> shift_;
    const bool top = (p.word(1) | p.word(2) | p.word(3)) != 0 ||
                     p.low64() > num_prefixes();
    return top ? num_prefixes() : p.low64();
  }
  bool IsAligned(const BitKey& key) const {
    return (key & BitKey::LowMask(shift_)).is_zero();
  }
  uint64_t offset(uint64_t prefix) const { return offsets_[prefix]; }
  uint64_t MemoryBytes() const { return offsets_.size() * sizeof(uint64_t); }

 private:
  int depth_ = 0;
  int shift_ = BitKey::kBits;
  uint64_t size_ = 0;
  BitKey last_;
  std::vector<uint64_t> offsets_ = {0, 0};
};

/// One key-sorted run: SoA columns, the parallel key column and their
/// prefix table, none of them owned.
class SortedRun {
 public:
  SortedRun(const DescriptorView& view, const BitKey* keys,
            const PrefixTable& table);

  size_t size() const { return view_.count; }
  bool empty() const { return view_.count == 0; }
  const DescriptorView& view() const { return view_; }
  const BitKey* keys() const { return keys_; }
  const PrefixTable& table() const { return *table_; }
  /// The run must not be empty.
  const BitKey& min_key() const { return keys_[0]; }
  const BitKey& max_key() const { return keys_[view_.count - 1]; }

  /// The record range [first, last) of the curve section [begin, end): the
  /// first records with keys >= begin and >= end, a zero end meaning the
  /// top of the key space. A bound aligned at the table depth is one table
  /// read, any other a binary search inside its bucket.
  std::pair<size_t, size_t> Resolve(const BitKey& begin,
                                    const BitKey& end) const;

 private:
  size_t LowerBound(const BitKey& key) const;

  DescriptorView view_;
  const BitKey* keys_;
  const PrefixTable* table_;
};

/// The refinement scan over sorted runs: for each selected section (one
/// ranges_scanned each) and each run, in order, skips the run when its
/// keys miss the section, else resolves the section and scans its records.
void ScanSortedRuns(const fp::Fingerprint& query,
                    const BlockSelection& selection,
                    std::span<const SortedRun> runs, const RefineSpec& spec,
                    QueryResult* result);

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_SORTED_RUN_H_
