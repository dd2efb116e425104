#ifndef S3VCD_CORE_DESCRIPTOR_BLOCK_H_
#define S3VCD_CORE_DESCRIPTOR_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/record.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

/// Non-owning view of a structure-of-arrays record store: raw pointers to
/// the packed descriptor bytes and the parallel id/time/x/y columns. The
/// refinement kernels (core/scan_kernel) operate on views, so the same
/// SIMD scan runs over a resident DescriptorBlock and over columns mapped
/// straight out of an on-disk segment (src/store/) without copying. The
/// pointed-to arrays must outlive the view and hold `count` entries each.
struct DescriptorView {
  const uint8_t* descriptors = nullptr;  ///< count * fp::kDims packed bytes
  const uint32_t* ids = nullptr;
  const uint32_t* time_codes = nullptr;
  const float* xs = nullptr;
  const float* ys = nullptr;
  size_t count = 0;

  size_t size() const { return count; }
  bool empty() const { return count == 0; }

  /// First byte of record i's descriptor.
  const uint8_t* descriptor(size_t i) const {
    return descriptors + i * fp::kDims;
  }
  uint32_t id(size_t i) const { return ids[i]; }
  uint32_t time_code(size_t i) const { return time_codes[i]; }
  float x(size_t i) const { return xs[i]; }
  float y(size_t i) const { return ys[i]; }
};

/// Structure-of-arrays store of fingerprint records: the 20-byte
/// descriptors live packed back to back, with the ids, time codes and
/// interest-point coordinates in parallel arrays. This is the layout every
/// refinement scan runs over — a curve-section strip touches 20 contiguous
/// bytes per record instead of striding over 36-byte FingerprintRecords,
/// and the packed descriptors are what the SIMD kernels in
/// core/scan_kernel consume. The static database, the segment memtable,
/// the VA-file's exact vectors and the LSH record snapshot all keep their
/// records in a DescriptorBlock.
class DescriptorBlock {
 public:
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  void Reserve(size_t n) {
    descriptors_.reserve(n * fp::kDims);
    ids_.reserve(n);
    time_codes_.reserve(n);
    xs_.reserve(n);
    ys_.reserve(n);
  }

  void Append(const fp::Fingerprint& descriptor, uint32_t id,
              uint32_t time_code, float x, float y) {
    descriptors_.insert(descriptors_.end(), descriptor.begin(),
                        descriptor.end());
    ids_.push_back(id);
    time_codes_.push_back(time_code);
    xs_.push_back(x);
    ys_.push_back(y);
  }

  void AppendRecord(const FingerprintRecord& r) {
    Append(r.descriptor, r.id, r.time_code, r.x, r.y);
  }

  /// Drops every record from index n on (n <= size()).
  void Truncate(size_t n) {
    descriptors_.resize(n * fp::kDims);
    ids_.resize(n);
    time_codes_.resize(n);
    xs_.resize(n);
    ys_.resize(n);
  }

  void Clear() { Truncate(0); }

  /// The packed descriptor bytes (size() * fp::kDims of them).
  const uint8_t* descriptors() const { return descriptors_.data(); }
  /// First byte of record i's descriptor.
  const uint8_t* descriptor(size_t i) const {
    return descriptors_.data() + i * fp::kDims;
  }
  uint32_t id(size_t i) const { return ids_[i]; }
  uint32_t time_code(size_t i) const { return time_codes_[i]; }
  float x(size_t i) const { return xs_[i]; }
  float y(size_t i) const { return ys_[i]; }

  /// Materializes record i in array-of-structs form (serialization,
  /// rebuilds; not the scan path).
  FingerprintRecord Record(size_t i) const {
    FingerprintRecord r;
    std::memcpy(r.descriptor.data(), descriptor(i), fp::kDims);
    r.id = ids_[i];
    r.time_code = time_codes_[i];
    r.x = xs_[i];
    r.y = ys_[i];
    return r;
  }

  /// A view over this block's arrays, valid until the next mutation.
  DescriptorView View() const {
    return {descriptors_.data(), ids_.data(),  time_codes_.data(),
            xs_.data(),          ys_.data(),   ids_.size()};
  }

  uint64_t MemoryBytes() const {
    return descriptors_.size() * sizeof(uint8_t) +
           ids_.size() * sizeof(uint32_t) +
           time_codes_.size() * sizeof(uint32_t) +
           xs_.size() * sizeof(float) + ys_.size() * sizeof(float);
  }

 private:
  std::vector<uint8_t> descriptors_;  ///< size() * fp::kDims packed bytes
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> time_codes_;
  std::vector<float> xs_;
  std::vector<float> ys_;
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_DESCRIPTOR_BLOCK_H_
