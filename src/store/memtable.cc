#include "store/memtable.h"

#include <algorithm>

namespace s3vcd::store {

std::pair<size_t, size_t> MemtableRun::ResolveRange(const BitKey& begin,
                                                    const BitKey& end) const {
  const BitKey* const last_key = keys_ + view_.count;
  const size_t first = std::lower_bound(keys_, last_key, begin) - keys_;
  const size_t last = end.is_zero()
                          ? view_.count
                          : std::lower_bound(keys_, last_key, end) - keys_;
  return {first, last};
}

MemtableRun Memtable::run(size_t i) const {
  const size_t first = run_starts_[i];
  const size_t last =
      i + 1 < run_starts_.size() ? run_starts_[i + 1] : keys_.size();
  const core::DescriptorView all = block_.View();
  const core::DescriptorView view{all.descriptor(first), all.ids + first,
                                  all.time_codes + first, all.xs + first,
                                  all.ys + first, last - first};
  return MemtableRun(view, keys_.data() + first);
}

void Memtable::Append(const fp::Fingerprint& descriptor, uint32_t id,
                      uint32_t time_code, float x, float y,
                      const BitKey& key) {
  run_starts_.push_back(keys_.size());
  block_.Append(descriptor, id, time_code, x, y);
  keys_.push_back(key);
  while (run_starts_.size() >= 2) {
    const size_t newest = run_starts_.back();
    const size_t older = run_starts_[run_starts_.size() - 2];
    if (newest - older != keys_.size() - newest) {
      break;
    }
    MergeLastTwo();
  }
}

void Memtable::MergeAll() {
  while (run_starts_.size() >= 2) {
    MergeLastTwo();
  }
}

void Memtable::Clear() {
  block_.Clear();
  keys_.clear();
  run_starts_.clear();
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
}

}  // namespace s3vcd::store
