#include "store/memtable.h"

#include <algorithm>

namespace s3vcd::store {

core::SortedRun Memtable::run(size_t i) const {
  const size_t first = run_starts_[i];
  const size_t last =
      i + 1 < run_starts_.size() ? run_starts_[i + 1] : keys_.size();
  const core::DescriptorView all = block_.View();
  const core::DescriptorView view{all.descriptor(first), all.ids + first,
                                  all.time_codes + first, all.xs + first,
                                  all.ys + first, last - first};
  return core::SortedRun(view, keys_.data() + first, tables_[i]);
}

uint64_t Memtable::MemoryBytes() const {
  uint64_t bytes = block_.MemoryBytes() + keys_.size() * sizeof(BitKey);
  for (const core::PrefixTable& table : tables_) {
    bytes += table.MemoryBytes();
  }
  return bytes;
}

void Memtable::Append(const fp::Fingerprint& descriptor, uint32_t id,
                      uint32_t time_code, float x, float y,
                      const BitKey& key) {
  run_starts_.push_back(keys_.size());
  block_.Append(descriptor, id, time_code, x, y);
  keys_.push_back(key);
  tables_.emplace_back();
  while (run_starts_.size() >= 2) {
    const size_t newest = run_starts_.back();
    const size_t older = run_starts_[run_starts_.size() - 2];
    if (newest - older != keys_.size() - newest) {
      break;
    }
    MergeLastTwo();
  }
  IndexLastRun();
}

void Memtable::MergeAll() {
  while (run_starts_.size() >= 2) {
    MergeLastTwo();
  }
  if (!empty()) {
    IndexLastRun();
  }
}

void Memtable::IndexLastRun() {
  const size_t begin = run_starts_.back();
  tables_.back() = core::PrefixTable::OfRun(keys_.data() + begin,
                                            keys_.size() - begin, *curve_);
}

void Memtable::Clear() {
  block_.Clear();
  keys_.clear();
  run_starts_.clear();
  tables_.clear();
  // The merge buffer grew to the last merge, as large as the memtable:
  // release it between fills rather than hold a second copy's memory.
  merged_ = core::DescriptorBlock();
  merged_keys_ = std::vector<BitKey>();
}

void Memtable::MergeLastTwo() {
  const size_t begin = run_starts_[run_starts_.size() - 2];
  const size_t mid = run_starts_.back();
  const size_t end = keys_.size();
  merged_.Clear();
  merged_keys_.clear();
  size_t a = begin;
  size_t b = mid;
  while (a < mid || b < end) {
    // The older run wins ties: equal keys keep arrival order.
    const size_t i = b == end || (a < mid && !(keys_[b] < keys_[a])) ? a++
                                                                     : b++;
    merged_.AppendRecord(block_.Record(i));
    merged_keys_.push_back(keys_[i]);
  }
  block_.Truncate(begin);
  keys_.resize(begin);
  for (size_t i = 0; i < merged_keys_.size(); ++i) {
    block_.AppendRecord(merged_.Record(i));
  }
  keys_.insert(keys_.end(), merged_keys_.begin(), merged_keys_.end());
  run_starts_.pop_back();
  tables_.pop_back();
}

}  // namespace s3vcd::store
