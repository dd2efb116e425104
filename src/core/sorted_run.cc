#include "core/sorted_run.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace s3vcd::core {

BitKey CurveKey(const hilbert::HilbertCurve& curve,
                const fp::Fingerprint& fingerprint) {
  uint32_t coords[fp::kDims];
  const int shift = 8 - curve.order();
  for (int j = 0; j < fp::kDims; ++j) {
    coords[j] = static_cast<uint32_t>(fingerprint[j]) >> shift;
  }
  return curve.Encode(coords);
}

int PrefixTable::RunDepth(uint64_t n, const hilbert::HilbertCurve& curve) {
  // ceil(log2 n) is std::bit_width(n - 1) for n >= 2.
  const int log2_n = n < 2 ? 1 : static_cast<int>(std::bit_width(n - 1));
  return std::clamp(log2_n, 1, curve.dims());
}

PrefixTable::PrefixTable(int key_bits, int depth)
    : depth_(depth),
      shift_(key_bits - depth),
      offsets_((uint64_t{1} << depth) + 1, 0) {
  S3VCD_CHECK(depth >= 0 && depth <= key_bits && depth < 64);
}

PrefixTable PrefixTable::OfRun(const BitKey* keys, size_t n,
                               const hilbert::HilbertCurve& curve) {
  PrefixTable table(curve.key_bits(), RunDepth(n, curve));
  for (size_t i = 0; i < n; ++i) {
    S3VCD_CHECK(table.Append(keys[i]));
  }
  table.Finish();
  return table;
}

bool PrefixTable::Append(const BitKey& key) {
  if (size_ > 0 && key < last_) {
    return false;
  }
  // Counts each prefix in the slot after it; Finish() sums them up. A
  // count per key, without walking the buckets, keeps the pass branch-free.
  ++offsets_[std::min(Prefix(key) + 1, num_prefixes())];
  last_ = key;
  ++size_;
  return true;
}

void PrefixTable::Finish() {
  for (uint64_t b = 1; b <= num_prefixes(); ++b) {
    offsets_[b] += offsets_[b - 1];
  }
}

SortedRun::SortedRun(const DescriptorView& view, const BitKey* keys,
                     const PrefixTable& table)
    : view_(view), keys_(keys), table_(&table) {
  S3VCD_DCHECK(table.size() == view.count);
}

size_t SortedRun::LowerBound(const BitKey& key) const {
  const uint64_t prefix = table_->Prefix(key);
  const size_t first = table_->offset(prefix);
  if (prefix == table_->num_prefixes() || table_->IsAligned(key)) {
    return first;  // aligned: the bucket's first record
  }
  const size_t last = table_->offset(prefix + 1);
  return static_cast<size_t>(
      std::lower_bound(keys_ + first, keys_ + last, key) - keys_);
}

std::pair<size_t, size_t> SortedRun::Resolve(const BitKey& begin,
                                             const BitKey& end) const {
  return {LowerBound(begin), end.is_zero() ? size() : LowerBound(end)};
}

void ScanSortedRuns(const fp::Fingerprint& query,
                    const BlockSelection& selection,
                    std::span<const SortedRun> runs, const RefineSpec& spec,
                    QueryResult* result) {
  for (const auto& [begin, end] : selection.ranges) {
    ++result->stats.ranges_scanned;
    for (const SortedRun& run : runs) {
      if (run.empty() || run.max_key() < begin ||
          (!end.is_zero() && !(run.min_key() < end))) {
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
