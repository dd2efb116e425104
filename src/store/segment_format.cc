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

/// Required byte length of section `s` for `n` records under `kind`.
/// Sections 0-5 are per-record columns (the descriptor column's width is
/// the codec's code bytes); section 6 is the fixed-size codec-params blob,
/// present exactly when the codec is quantized. These lengths are what the
/// reader re-derives and checks, so a segment whose header codec tag does
/// not match its actual payload widths fails validation structurally.
uint64_t SectionLength(uint32_t s, uint64_t n,
                       core::DescriptorCodecKind kind) {
  switch (s) {
    case 0:
      return n * sizeof(uint32_t);
    case 1:
      return n * core::DescriptorCodeBytes(kind);
    case 2:
    case 3:
      return n * sizeof(uint32_t);
    case 4:
    case 5:
      return n * sizeof(float);
    case 6:
      return kind == core::DescriptorCodecKind::kExactU8
                 ? 0
                 : core::kDescriptorCodecParamsBytes;
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

  // Train the codec on the block being written; quantized parameters are
  // per-segment (spills and compactions re-train on their merged input).
  const core::DescriptorCodec codec = core::TrainDescriptorCodec(
      options.codec, block.descriptors(), block.size());
  const size_t code_bytes = codec.code_bytes();

  SectionLayout sections[kNumSections];
  uint64_t offset = kSegmentHeaderBytes;
  for (uint32_t s = 0; s < kNumSections; ++s) {
    sections[s].offset = offset;
    sections[s].length = SectionLength(s, n, options.codec);
    offset = Align64(offset + sections[s].length);
  }
  const uint64_t footer_offset = offset;

  BinaryWriter writer;
  S3VCD_RETURN_IF_ERROR(writer.Open(path));

  uint8_t header[kSegmentHeaderBytes] = {};
  PutU32(header + 0, kSegmentMagic);
  PutU32(header + 4, kSegmentVersion);
  PutU32(header + 8, static_cast<uint32_t>(fp::kDims));
  header[kHeaderCodecOff] = static_cast<uint8_t>(options.codec);
  PutU64(header + kHeaderCountOff, n);
  PutU64(header + 24, segment_id);
  PutU32(header + kHeaderCrcOff, Crc32(header, kHeaderCrcOff));
  S3VCD_RETURN_IF_ERROR(writer.WriteBytes(header, sizeof(header)));

  const core::DescriptorView view = block.View();

  // Section 0: the code column.
  S3VCD_RETURN_IF_ERROR(PadTo(&writer, sections[0].offset));
  sections[0].crc = Crc32(codes.data(), sections[0].length);
  S3VCD_RETURN_IF_ERROR(writer.WriteBytes(codes.data(), sections[0].length));

  // Section 1: the descriptor column — written straight from the block on
  // the exact codec, encoded in chunks otherwise.
  S3VCD_RETURN_IF_ERROR(PadTo(&writer, sections[1].offset));
  if (codec.is_exact()) {
    sections[1].crc = Crc32(view.descriptors, sections[1].length);
    S3VCD_RETURN_IF_ERROR(
        writer.WriteBytes(view.descriptors, sections[1].length));
  } else {
    constexpr size_t kChunkRecords = 512;
    std::vector<uint8_t> chunk(kChunkRecords * code_bytes);
    uint32_t crc = 0;
    for (size_t i = 0; i < n; i += kChunkRecords) {
      const size_t count = std::min<size_t>(kChunkRecords, n - i);
      for (size_t k = 0; k < count; ++k) {
        core::EncodeDescriptor(codec, block.descriptor(i + k),
                               chunk.data() + k * code_bytes);
      }
      crc = Crc32(chunk.data(), count * code_bytes, crc);
      S3VCD_RETURN_IF_ERROR(
          writer.WriteBytes(chunk.data(), count * code_bytes));
    }
    sections[1].crc = crc;
  }

  // Sections 2-5: the remaining SoA columns are contiguous already.
  const void* columns[6] = {nullptr, nullptr,  view.ids,
                            view.time_codes, view.xs, view.ys};
  for (uint32_t s = 2; s < 6; ++s) {
    S3VCD_RETURN_IF_ERROR(PadTo(&writer, sections[s].offset));
    sections[s].crc = Crc32(columns[s], sections[s].length);
    S3VCD_RETURN_IF_ERROR(writer.WriteBytes(columns[s], sections[s].length));
  }

  // Section 6: trained codec parameters (quantized segments only).
  S3VCD_RETURN_IF_ERROR(PadTo(&writer, sections[6].offset));
  if (!codec.is_exact()) {
    uint8_t params[core::kDescriptorCodecParamsBytes];
    core::SerializeCodecParams(codec, params);
    sections[6].crc = Crc32(params, sizeof(params));
    S3VCD_RETURN_IF_ERROR(writer.WriteBytes(params, sizeof(params)));
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
  // Known tags are exact (0) and lvq4 (2); tag 1, the retired 8-bit codec,
  // is refused like any other unknown tag.
  const auto codec_kind =
      static_cast<core::DescriptorCodecKind>(header[kHeaderCodecOff]);
  if (codec_kind != core::DescriptorCodecKind::kExactU8 &&
      codec_kind != core::DescriptorCodecKind::kLvq4) {
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
    // Re-derived from the header's count and codec tag: a segment whose
    // tag was flipped to a different codec (even with resealed checksums)
    // fails here, because the descriptor/params payloads have the wrong
    // byte widths for the claimed codec.
    if (sections[s].length != SectionLength(s, count_, codec_kind)) {
      return Status::Corruption("segment section length inconsistent with "
                                "record count and codec: " + path);
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
  if (!core::DeserializeCodecParams(codec_kind, data + sections[6].offset,
                                    &codec_)) {
    return Status::Corruption("segment codec parameters invalid: " + path);
  }

  codes_ = reinterpret_cast<const uint32_t*>(data + sections[0].offset);
  descriptors_ = data + sections[1].offset;
  ids_ = reinterpret_cast<const uint32_t*>(data + sections[2].offset);
  time_codes_ = reinterpret_cast<const uint32_t*>(data + sections[3].offset);
  xs_ = reinterpret_cast<const float*>(data + sections[4].offset);
  ys_ = reinterpret_cast<const float*>(data + sections[5].offset);

  // One pass over the codes: each in range and in order (the prefix table
  // is built as they are checked) and, on exact segments, the OrthantCode
  // of its descriptor. Then the footer's min/max must agree.
  table_ = core::PrefixTable(core::PrefixTable::RunDepth(count_));
  fp::Fingerprint descriptor;
  for (uint64_t i = 0; i < count_; ++i) {
    if (!table_.Append(codes_[i])) {
      return Status::Corruption("segment codes out of order or range: " +
                                path);
    }
    if (codec_.is_exact()) {
      std::memcpy(descriptor.data(), descriptors_ + i * fp::kDims, fp::kDims);
      if (codes_[i] != core::OrthantCode(descriptor)) {
        return Status::Corruption(
            "segment code disagrees with its descriptor: " + path);
      }
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
  core::DecodeDescriptor(codec_, descriptors_ + i * codec_.code_bytes(),
                         r.descriptor.data());
  r.id = ids_[i];
  r.time_code = time_codes_[i];
  r.x = xs_[i];
  r.y = ys_[i];
  return r;
}

}  // namespace s3vcd::store
