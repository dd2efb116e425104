#include "store/memtable.h"

#include <algorithm>

namespace s3vcd::store {

core::SortedRun Memtable::run(size_t i) const {
  const size_t first = run_starts_[i];
  const size_t last =
      i + 1 < run_starts_.size() ? run_starts_[i + 1] : codes_.size();
  const core::DescriptorView all = block_.View();
  const core::DescriptorView view{all.descriptor(first), all.ids + first,
                                  all.time_codes + first, all.xs + first,
                                  all.ys + first, last - first};
  return core::SortedRun(view, codes_.data() + first,
                         i < tables_.size() ? &tables_[i] : nullptr);
}

uint64_t Memtable::MemoryBytes() const {
  uint64_t bytes = block_.MemoryBytes() + codes_.size() * sizeof(uint32_t);
  for (const core::PrefixTable& table : tables_) {
    bytes += table.MemoryBytes();
  }
  return bytes;
}

void Memtable::Append(const fp::Fingerprint& descriptor, uint32_t id,
                      uint32_t time_code, float x, float y, uint32_t code) {
  run_starts_.push_back(codes_.size());
  block_.Append(descriptor, id, time_code, x, y);
  codes_.push_back(code);
  while (run_starts_.size() >= 2) {
    const size_t newest = run_starts_.back();
    const size_t older = run_starts_[run_starts_.size() - 2];
    if (newest - older != codes_.size() - newest) {
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
  if (tables_.size() < run_starts_.size() &&
      codes_.size() - begin >= kMinIndexedRun) {
    tables_.push_back(
        core::PrefixTable::OfRun(codes_.data() + begin, codes_.size() - begin));
  }
}

void Memtable::Clear() {
  block_.Clear();
  codes_.clear();
  run_starts_.clear();
  tables_.clear();
  // The merge buffer grew to the last merge, as large as the memtable:
  // release it between fills rather than hold a second copy's memory.
  merged_ = core::DescriptorBlock();
  merged_codes_ = std::vector<uint32_t>();
}

void Memtable::MergeLastTwo() {
  const size_t begin = run_starts_[run_starts_.size() - 2];
  const size_t mid = run_starts_.back();
  const size_t end = codes_.size();
  merged_.Clear();
  merged_codes_.clear();
  size_t a = begin;
  size_t b = mid;
  while (a < mid || b < end) {
    // The older run wins ties: equal codes keep arrival order.
    const size_t i =
        b == end || (a < mid && codes_[a] <= codes_[b]) ? a++ : b++;
    merged_.AppendRecord(block_.Record(i));
    merged_codes_.push_back(codes_[i]);
  }
  block_.Truncate(begin);
  codes_.resize(begin);
  for (size_t i = 0; i < merged_codes_.size(); ++i) {
    block_.AppendRecord(merged_.Record(i));
  }
  codes_.insert(codes_.end(), merged_codes_.begin(), merged_codes_.end());
  run_starts_.pop_back();
  // The merged run is now the newest; neither input's table describes it.
  tables_.resize(std::min(tables_.size(), run_starts_.size() - 1));
}

}  // namespace s3vcd::store
