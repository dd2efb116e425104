#include "store/segment_format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/io.h"

namespace s3vcd::store {

namespace {

inline void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
inline void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}


inline uint64_t Align64(uint64_t off) {
  return (off + (kSectionAlign - 1)) & ~uint64_t{kSectionAlign - 1};
}

struct SectionLayout {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
};

/// Required byte length of section `s` for `n` records. Sections 0-5 are
/// per-record columns; section 6, the codec-params blob of the retired
/// quantized codecs, is always empty. These lengths are what the reader
/// re-derives and checks.
uint64_t SectionLength(uint32_t s, uint64_t n) {
  switch (s) {
    case 0:
      return n * sizeof(uint32_t);
    case 1:
      return n * fp::kDims;
    case 2:
    case 3:
      return n * sizeof(uint32_t);
    case 4:
    case 5:
      return n * sizeof(float);
  }
  return 0;
}

Status PadTo(BinaryWriter* writer, uint64_t target) {
  static const uint8_t kZeros[kSectionAlign] = {};
  while (writer->bytes_written() < target) {
    const size_t n = std::min<uint64_t>(target - writer->bytes_written(),
                                        kSectionAlign);
    S3VCD_RETURN_IF_ERROR(writer->WriteBytes(kZeros, n));
  }
  return Status::OK();
}

Status WriteSegmentFileImpl(const std::string& path, uint64_t segment_id,
                            const core::DescriptorBlock& block,
                            const std::vector<uint32_t>& codes,
                            const SegmentWriteOptions& options) {
  const uint64_t n = block.size();
  if (codes.size() != n) {
    return Status::InvalidArgument("code array size != record count");
  }
  if (!std::is_sorted(codes.begin(), codes.end())) {
    return Status::InvalidArgument("segment records must be code-sorted");
  }

  SectionLayout sections[kNumSections];
  uint64_t offset = kSegmentHeaderBytes;
  for (uint32_t s = 0; s < kNumSections; ++s) {
    sections[s].offset = offset;
    sections[s].length = SectionLength(s, n);
    offset = Align64(offset + sections[s].length);
  }
  const uint64_t footer_offset = offset;

  BinaryWriter writer;
  S3VCD_RETURN_IF_ERROR(writer.Open(path));

  uint8_t header[kSegmentHeaderBytes] = {};
  PutU32(header + 0, kSegmentMagic);
  PutU32(header + 4, kSegmentVersion);
  PutU32(header + 8, static_cast<uint32_t>(fp::kDims));
  // The codec tag at kHeaderCodecOff stays 0: the exact descriptor bytes.
  PutU64(header + kHeaderCountOff, n);
  PutU64(header + 24, segment_id);
  PutU32(header + kHeaderCrcOff, Crc32(header, kHeaderCrcOff));
  S3VCD_RETURN_IF_ERROR(writer.WriteBytes(header, sizeof(header)));

  const core::DescriptorView view = block.View();

  // Sections 0-5: the code column, then the SoA columns, each contiguous
  // already. Section 6 (codec params) is empty.
  const void* columns[6] = {codes.data(), view.descriptors, view.ids,
                            view.time_codes, view.xs, view.ys};
  for (uint32_t s = 0; s < 6; ++s) {
    S3VCD_RETURN_IF_ERROR(PadTo(&writer, sections[s].offset));
    sections[s].crc = Crc32(columns[s], sections[s].length);
    S3VCD_RETURN_IF_ERROR(writer.WriteBytes(columns[s], sections[s].length));
  }

  S3VCD_RETURN_IF_ERROR(PadTo(&writer, footer_offset));
  uint8_t footer[kSegmentFooterBytes] = {};
  PutU32(footer + 0, kNumSections);
  for (uint32_t s = 0; s < kNumSections; ++s) {
    uint8_t* e = footer + 4 + s * 24;
    PutU64(e + 0, sections[s].offset);
    PutU64(e + 8, sections[s].length);
    PutU32(e + 16, sections[s].crc);
    PutU32(e + 20, 0);  // reserved
  }
  PutU32(footer + kFooterMinCodeOff, n > 0 ? codes.front() : 0);
  PutU32(footer + kFooterMaxCodeOff, n > 0 ? codes.back() : 0);
  PutU64(footer + kFooterOffsetOff, footer_offset);
  PutU32(footer + kFooterCrcOff, Crc32(footer, kFooterCrcOff));
  PutU32(footer + kFooterMagicOff, kSegmentMagic);
  S3VCD_RETURN_IF_ERROR(writer.WriteBytes(footer, sizeof(footer)));

  if (options.sync) {
    S3VCD_RETURN_IF_ERROR(writer.Sync());
  }
  return writer.Close();
}

}  // namespace

Status WriteSegmentFile(const std::string& path, uint64_t segment_id,
                        const core::DescriptorBlock& block,
                        const std::vector<uint32_t>& codes,
                        const SegmentWriteOptions& options) {
  const Status status =
      WriteSegmentFileImpl(path, segment_id, block, codes, options);
  if (!status.ok()) {
    std::remove(path.c_str());
  }
  return status;
}

SegmentReader::~SegmentReader() {
  if (map_base_ != nullptr) {
    ::munmap(map_base_, map_len_);
  }
}

Result<std::shared_ptr<SegmentReader>> SegmentReader::Open(
    const std::string& path, const SegmentReadOptions& options) {
  std::shared_ptr<SegmentReader> reader(new SegmentReader());
  S3VCD_RETURN_IF_ERROR(reader->Init(path, options));
  return reader;
}

Status SegmentReader::Init(const std::string& path,
                           const SegmentReadOptions& options) {
  path_ = path;
  const uint8_t* data = nullptr;
  uint64_t size = 0;
  if (options.use_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st;
      if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        void* m = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                         MAP_SHARED, fd, 0);
        if (m != MAP_FAILED) {
          map_base_ = m;
          map_len_ = static_cast<size_t>(st.st_size);
        }
      }
      ::close(fd);
    }
  }
  if (map_base_ != nullptr) {
    data = static_cast<const uint8_t*>(map_base_);
    size = map_len_;
  } else {
    // Resident fallback (also the explicit use_mmap=false path).
    S3VCD_ASSIGN_OR_RETURN(resident_, ReadFileBytes(path));
    data = resident_.data();
    size = resident_.size();
  }
  file_bytes_ = size;

  // Structural screen, outside in: sizes, trailing magic, footer CRC,
  // header, section table, then payload CRCs. Everything is kCorruption —
  // the reader never serves a partially validated file.
  if (size < kSegmentHeaderBytes + kSegmentFooterBytes) {
    return Status::Corruption("segment file truncated: " + path);
  }
  const uint8_t* footer = data + (size - kSegmentFooterBytes);
  if (GetU32(footer + kFooterMagicOff) != kSegmentMagic) {
    return Status::Corruption("segment trailing magic mismatch: " + path);
  }
  if (GetU32(footer + kFooterCrcOff) != Crc32(footer, kFooterCrcOff)) {
    return Status::Corruption("segment footer checksum mismatch: " + path);
  }
  if (GetU64(footer + kFooterOffsetOff) != size - kSegmentFooterBytes) {
    return Status::Corruption("segment footer offset mismatch: " + path);
  }

  const uint8_t* header = data;
  if (GetU32(header + 0) != kSegmentMagic) {
    return Status::Corruption("not a segment file: " + path);
  }
  if (GetU32(header + 4) != kSegmentVersion) {
    return Status::Corruption("unsupported segment version " +
                              std::to_string(GetU32(header + 4)) + ": " +
                              path);
  }
  if (GetU32(header + kHeaderCrcOff) != Crc32(header, kHeaderCrcOff)) {
    return Status::Corruption("segment header checksum mismatch: " + path);
  }
  if (GetU32(header + 8) != static_cast<uint32_t>(fp::kDims)) {
    return Status::Corruption("segment dims mismatch: " + path);
  }
  count_ = GetU64(header + kHeaderCountOff);
  segment_id_ = GetU64(header + 24);
  // The one known tag is 0, the exact descriptor bytes. Tags 1 and 2, the
  // retired 8-bit and lvq4 codecs, are refused like any other unknown tag.
  if (header[kHeaderCodecOff] != 0) {
    return Status::Corruption("segment descriptor codec tag unknown: " +
                              path);
  }

  if (GetU32(footer + 0) != kNumSections) {
    return Status::Corruption("segment section count mismatch: " + path);
  }
  const uint64_t footer_offset = size - kSegmentFooterBytes;
  uint64_t prev_end = kSegmentHeaderBytes;
  SectionLayout sections[kNumSections];
  for (uint32_t s = 0; s < kNumSections; ++s) {
    const uint8_t* e = footer + 4 + s * 24;
    sections[s].offset = GetU64(e + 0);
    sections[s].length = GetU64(e + 8);
    sections[s].crc = GetU32(e + 16);
    // Re-derived from the header's count: every column holds count_
    // records and the codec-params section is empty.
    if (sections[s].length != SectionLength(s, count_)) {
      return Status::Corruption(
          "segment section length inconsistent with record count: " + path);
    }
    if (sections[s].offset % kSectionAlign != 0 ||
        sections[s].offset < prev_end || sections[s].offset > footer_offset ||
        sections[s].length > footer_offset - sections[s].offset) {
      return Status::Corruption(
          "segment section table overlapping or out of bounds: " + path);
    }
    prev_end = sections[s].offset + sections[s].length;
  }
  for (uint32_t s = 0; s < kNumSections; ++s) {
    if (Crc32(data + sections[s].offset, sections[s].length) !=
        sections[s].crc) {
      return Status::Corruption("segment section " + std::to_string(s) +
                                " checksum mismatch: " + path);
    }
  }

  codes_ = reinterpret_cast<const uint32_t*>(data + sections[0].offset);
  descriptors_ = data + sections[1].offset;
  ids_ = reinterpret_cast<const uint32_t*>(data + sections[2].offset);
  time_codes_ = reinterpret_cast<const uint32_t*>(data + sections[3].offset);
  xs_ = reinterpret_cast<const float*>(data + sections[4].offset);
  ys_ = reinterpret_cast<const float*>(data + sections[5].offset);

  // One pass over the codes: each in range and in order (the prefix table
  // is built as they are checked) and the OrthantCode of its descriptor.
  // Then the footer's min/max must agree.
  table_ = core::PrefixTable(core::PrefixTable::RunDepth(count_));
  fp::Fingerprint descriptor;
  for (uint64_t i = 0; i < count_; ++i) {
    if (!table_.Append(codes_[i])) {
      return Status::Corruption("segment codes out of order or range: " +
                                path);
    }
    std::memcpy(descriptor.data(), descriptors_ + i * fp::kDims, fp::kDims);
    if (codes_[i] != core::OrthantCode(descriptor)) {
      return Status::Corruption(
          "segment code disagrees with its descriptor: " + path);
    }
  }
  table_.Finish();
  if (GetU32(footer + kFooterMinCodeOff) != (count_ > 0 ? codes_[0] : 0) ||
      GetU32(footer + kFooterMaxCodeOff) !=
          (count_ > 0 ? codes_[count_ - 1] : 0)) {
    return Status::Corruption("segment min/max code mismatch: " + path);
  }
  return Status::OK();
}

core::FingerprintRecord SegmentReader::Record(size_t i) const {
  core::FingerprintRecord r;
  std::memcpy(r.descriptor.data(), descriptors_ + i * fp::kDims, fp::kDims);
  r.id = ids_[i];
  r.time_code = time_codes_[i];
  r.x = xs_[i];
  r.y = ys_[i];
  return r;
}

}  // namespace s3vcd::store
