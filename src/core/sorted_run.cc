#include "core/sorted_run.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace s3vcd::core {

uint32_t OrthantCode(const fp::Fingerprint& fingerprint) {
  uint32_t signs = 0;  // bit j: the side of axis j
  for (int j = 0; j < fp::kDims; ++j) {
    signs |= static_cast<uint32_t>(fingerprint[j] >> 7) << j;
  }
  // Sides bit b = D - s holds the s-th split axis,
  // HilbertOrthants::SplitAxis(s): axis b + 1, and axis 0 for the top bit.
  // That is the sign mask rotated right by one.
  const uint32_t sides = (signs >> 1) | ((signs & 1u) << (kCodeBits - 1));
  return HilbertOrthants::Prefix(sides);
}

int PrefixTable::RunDepth(uint64_t n) {
  // ceil(log2 n) is std::bit_width(n - 1) for n >= 2.
  const int log2_n = n < 2 ? 1 : static_cast<int>(std::bit_width(n - 1));
  return std::clamp(log2_n, 1, kCodeBits);
}

PrefixTable::PrefixTable(int depth)
    : depth_(depth),
      shift_(kCodeBits - depth),
      offsets_((uint64_t{1} << depth) + 1, 0) {
  S3VCD_CHECK(depth >= 0 && depth <= kCodeBits);
}

PrefixTable PrefixTable::OfRun(const uint32_t* codes, size_t n) {
  PrefixTable table(RunDepth(n));
  for (size_t i = 0; i < n; ++i) {
    S3VCD_CHECK(table.Append(codes[i]));
  }
  table.Finish();
  return table;
}

bool PrefixTable::Append(uint32_t code) {
  if (code >= kCodeEnd || (size_ > 0 && code < last_)) {
    return false;
  }
  // Counts each prefix in the slot after it; Finish() sums them up. A
  // count per code, without walking the buckets, keeps the pass
  // branch-free.
  ++offsets_[Prefix(code) + 1];
  last_ = code;
  ++size_;
  return true;
}

void PrefixTable::Finish() {
  for (uint64_t b = 1; b <= num_prefixes(); ++b) {
    offsets_[b] += offsets_[b - 1];
  }
}

SortedRun::SortedRun(const DescriptorView& view, const uint32_t* codes,
                     const PrefixTable* table)
    : view_(view), codes_(codes), table_(table) {
  S3VCD_DCHECK(table == nullptr || table->size() == view.count);
}

size_t SortedRun::LowerBound(uint32_t code) const {
  size_t first = 0;
  size_t last = size();
  if (table_ != nullptr) {
    const uint64_t prefix = table_->Prefix(code);
    first = table_->offset(prefix);
    if (prefix == table_->num_prefixes() || table_->IsAligned(code)) {
      return first;  // aligned: the bucket's first record
    }
    last = table_->offset(prefix + 1);
  }
  return static_cast<size_t>(
      std::lower_bound(codes_ + first, codes_ + last, code) - codes_);
}

std::pair<size_t, size_t> SortedRun::Resolve(uint32_t begin,
                                             uint32_t end) const {
  return {LowerBound(begin), LowerBound(end)};
}

void ScanSortedRuns(const fp::Fingerprint& query,
                    const BlockSelection& selection,
                    std::span<const SortedRun> runs, const RefineSpec& spec,
                    QueryResult* result) {
  for (const auto& [begin, end] : selection.ranges) {
    ++result->stats.ranges_scanned;
    for (const SortedRun& run : runs) {
      if (run.empty() || run.max_code() < begin || run.min_code() >= end) {
        continue;
      }
      const auto [first, last] = run.Resolve(begin, end);
      if (first < last) {
        ScanRecords(query, run.view(), first, last, spec, result);
      }
    }
  }
}

}  // namespace s3vcd::core
