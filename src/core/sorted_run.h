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

namespace s3vcd::core {

// Record order along the curve (paper Section IV), decided once for every
// store: the index, the segments, the memtable's runs and the pseudo-disk
// sort records by OrthantCode, index a code-sorted run with a PrefixTable
// and resolve a code range to a record range through SortedRun::Resolve.
// Every served block has depth <= D, so a query scans whole orthant cells:
// the order of the records inside one cell matters to no query, and every
// sort and merge keeps them in arrival order.

/// The orthant code of a fingerprint (see kCodeBits): the Hilbert prefix
/// of the orthant holding it, which is the top D bits of its order-8
/// Hilbert key.
uint32_t OrthantCode(const fp::Fingerprint& fingerprint);

/// Record offsets of the 2^t aligned code prefixes of one code-sorted run:
/// offset(b) is the first record whose depth-t prefix is >= b, offset(2^t)
/// the record count. Built in one streaming pass over the sorted codes.
class PrefixTable {
 public:
  /// t = clamp(ceil(log2 n), 1, D) for a run of n records: about one
  /// record per bucket.
  static int RunDepth(uint64_t n);
  /// The table of `n` codes known to be sorted (checked), at RunDepth.
  static PrefixTable OfRun(const uint32_t* codes, size_t n);

  /// Depth 0, no records: one bucket over the whole code space.
  PrefixTable() = default;
  /// Depth t in [0, D], awaiting the run's codes.
  explicit PrefixTable(int depth);

  /// Appends the run's next code; false, changing nothing, when it sorts
  /// below its predecessor or lies outside the code space.
  bool Append(uint32_t code);
  /// Turns the per-prefix counts into offsets, after the last code.
  void Finish();

  int depth() const { return depth_; }
  uint64_t size() const { return size_; }
  uint64_t num_prefixes() const { return offsets_.size() - 1; }
  /// Depth-t prefix of a code or range bound in [0, kCodeEnd].
  uint64_t Prefix(uint32_t code) const { return code >> shift_; }
  bool IsAligned(uint32_t code) const {
    return (code & ((uint32_t{1} << shift_) - 1)) == 0;
  }
  uint64_t offset(uint64_t prefix) const { return offsets_[prefix]; }
  uint64_t MemoryBytes() const { return offsets_.size() * sizeof(uint64_t); }

 private:
  int depth_ = 0;
  int shift_ = kCodeBits;
  uint64_t size_ = 0;
  uint32_t last_ = 0;
  std::vector<uint64_t> offsets_ = {0, 0};
};

/// One code-sorted run: SoA columns, the parallel code column and their
/// prefix table, none of them owned.
class SortedRun {
 public:
  /// A null `table` marks a short run, resolved by binary search over all
  /// of its codes.
  SortedRun(const DescriptorView& view, const uint32_t* codes,
            const PrefixTable* table);

  size_t size() const { return view_.count; }
  bool empty() const { return view_.count == 0; }
  const DescriptorView& view() const { return view_; }
  const uint32_t* codes() const { return codes_; }
  const PrefixTable* table() const { return table_; }
  /// The run must not be empty.
  uint32_t min_code() const { return codes_[0]; }
  uint32_t max_code() const { return codes_[view_.count - 1]; }

  /// The record range [first, last) of the code range [begin, end),
  /// end <= kCodeEnd: the first records with codes >= begin and >= end. A
  /// bound aligned at the table depth is one table read, any other a
  /// binary search inside its bucket.
  std::pair<size_t, size_t> Resolve(uint32_t begin, uint32_t end) const;

 private:
  size_t LowerBound(uint32_t code) const;

  DescriptorView view_;
  const uint32_t* codes_;
  const PrefixTable* table_;
};

/// The refinement scan over sorted runs: for each selected code range (one
/// ranges_scanned each) and each run, in order, skips the run when its
/// codes miss the range, else resolves the range and scans its records.
void ScanSortedRuns(const fp::Fingerprint& query,
                    const BlockSelection& selection,
                    std::span<const SortedRun> runs, const RefineSpec& spec,
                    QueryResult* result);

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_SORTED_RUN_H_
