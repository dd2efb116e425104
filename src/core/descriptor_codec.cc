#include "core/descriptor_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace s3vcd::core {

namespace {

inline uint32_t EncodeAxis(uint32_t v, uint8_t lo, uint16_t step16,
                           uint32_t maxcode) {
  if (v <= lo) {
    return 0;
  }
  // round((v - lo) * 256 / step16), clamped to the code range.
  const uint32_t scaled = ((v - lo) * 256u + step16 / 2u) / step16;
  return std::min(scaled, maxcode);
}

inline uint32_t DecodeAxis(uint32_t c, uint8_t lo, uint16_t step16) {
  // The one decode formula of the whole system: every kernel variant and
  // every scalar path computes exactly this, so quantized distances are
  // bitwise identical everywhere. c*step16 <= 255*256 fits u16 with the
  // +128 rounding term staying inside u32 comfortably.
  const uint32_t v = lo + ((c * step16 + 128u) >> 8);
  return std::min(v, 255u);
}

}  // namespace

const char* DescriptorCodecName(DescriptorCodecKind kind) {
  switch (kind) {
    case DescriptorCodecKind::kExactU8:
      return "exact";
    case DescriptorCodecKind::kLvq4:
      return "lvq4";
  }
  return "unknown";
}

bool DescriptorCodecFromName(const std::string& name,
                             DescriptorCodecKind* kind) {
  if (name == "exact") {
    *kind = DescriptorCodecKind::kExactU8;
  } else if (name == "lvq4") {
    *kind = DescriptorCodecKind::kLvq4;
  } else {
    return false;
  }
  return true;
}

std::string DescriptorCodecNamesCsv() { return "exact, lvq4"; }

size_t DescriptorCodeBytes(DescriptorCodecKind kind) {
  return kind == DescriptorCodecKind::kLvq4 ? fp::kDims / 2 : fp::kDims;
}

uint32_t DescriptorCodecMaxCode(DescriptorCodecKind kind) {
  return kind == DescriptorCodecKind::kLvq4 ? 15u : 255u;
}

double DescriptorCodec::NormalizedMaxError(
    const double* inv_scale_sq) const {
  double acc = 0;
  for (int j = 0; j < fp::kDims; ++j) {
    const double e = static_cast<double>(axis_error[j]);
    acc += e * e * inv_scale_sq[j];
  }
  return std::sqrt(acc);
}

namespace {

/// Fills axis_error/max_error by exhaustively round-tripping every value
/// of the trained range [lo_j, hi_j] — integers in, integers out, so the
/// bound is exact, not estimated.
void FinalizeErrors(DescriptorCodec* codec,
                    const std::array<uint8_t, fp::kDims>& hi) {
  double sum_sq = 0;
  const uint32_t maxcode = DescriptorCodecMaxCode(codec->kind);
  for (int j = 0; j < fp::kDims; ++j) {
    uint32_t worst = 0;
    if (!codec->is_exact()) {
      for (uint32_t v = codec->lo[j]; v <= hi[j]; ++v) {
        const uint32_t c =
            EncodeAxis(v, codec->lo[j], codec->step16[j], maxcode);
        const uint32_t r = DecodeAxis(c, codec->lo[j], codec->step16[j]);
        worst = std::max(worst, r > v ? r - v : v - r);
      }
    }
    codec->axis_error[j] = static_cast<uint8_t>(std::min(worst, 255u));
    sum_sq += static_cast<double>(worst) * static_cast<double>(worst);
  }
  codec->max_error = std::sqrt(sum_sq);
}

}  // namespace

DescriptorCodec TrainDescriptorCodec(DescriptorCodecKind kind,
                                     const uint8_t* descriptors, size_t n) {
  DescriptorCodec codec;
  codec.kind = kind;
  codec.step16.fill(1);
  if (kind == DescriptorCodecKind::kExactU8) {
    return codec;
  }
  std::array<uint8_t, fp::kDims> hi{};
  codec.lo.fill(255);
  if (n == 0) {
    codec.lo.fill(0);
  }
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* d = descriptors + i * fp::kDims;
    for (int j = 0; j < fp::kDims; ++j) {
      codec.lo[j] = std::min(codec.lo[j], d[j]);
      hi[j] = std::max(hi[j], d[j]);
    }
  }
  const uint32_t maxcode = DescriptorCodecMaxCode(kind);
  for (int j = 0; j < fp::kDims; ++j) {
    const uint32_t range = hi[j] - codec.lo[j];
    // Round the fixed-point step up so the largest trained value still
    // encodes inside the code range (the +maxcode-1 ceiling), floor 1.
    codec.step16[j] = static_cast<uint16_t>(
        std::max<uint32_t>(1, (range * 256u + maxcode - 1) / maxcode));
  }
  FinalizeErrors(&codec, hi);
  return codec;
}

void EncodeDescriptor(const DescriptorCodec& codec, const uint8_t* src,
                      uint8_t* dst) {
  switch (codec.kind) {
    case DescriptorCodecKind::kExactU8:
      std::memcpy(dst, src, fp::kDims);
      return;
    case DescriptorCodecKind::kLvq4:
      for (int j = 0; j < fp::kDims; j += 2) {
        const uint32_t even =
            EncodeAxis(src[j], codec.lo[j], codec.step16[j], 15u);
        const uint32_t odd =
            EncodeAxis(src[j + 1], codec.lo[j + 1], codec.step16[j + 1], 15u);
        dst[j / 2] = static_cast<uint8_t>(even | (odd << 4));
      }
      return;
  }
}

void DecodeDescriptor(const DescriptorCodec& codec, const uint8_t* src,
                      uint8_t* dst) {
  switch (codec.kind) {
    case DescriptorCodecKind::kExactU8:
      std::memcpy(dst, src, fp::kDims);
      return;
    case DescriptorCodecKind::kLvq4:
      for (int j = 0; j < fp::kDims; j += 2) {
        const uint8_t byte = src[j / 2];
        dst[j] = static_cast<uint8_t>(
            DecodeAxis(byte & 0x0F, codec.lo[j], codec.step16[j]));
        dst[j + 1] = static_cast<uint8_t>(
            DecodeAxis(byte >> 4, codec.lo[j + 1], codec.step16[j + 1]));
      }
      return;
  }
}

void SerializeCodecParams(const DescriptorCodec& codec,
                          uint8_t out[kDescriptorCodecParamsBytes]) {
  std::memset(out, 0, kDescriptorCodecParamsBytes);
  for (int j = 0; j < fp::kDims; ++j) {
    const uint16_t s = codec.step16[j];
    std::memcpy(out + j * 2, &s, 2);
  }
  std::memcpy(out + 2 * fp::kDims, codec.lo.data(), fp::kDims);
  std::memcpy(out + 3 * fp::kDims, codec.axis_error.data(), fp::kDims);
  out[4 * fp::kDims] =
      static_cast<uint8_t>(DescriptorCodecMaxCode(codec.kind));
}

bool DeserializeCodecParams(DescriptorCodecKind kind, const uint8_t* in,
                            DescriptorCodec* codec) {
  DescriptorCodec out;
  out.kind = kind;
  if (kind == DescriptorCodecKind::kExactU8) {
    out.step16.fill(1);
    *codec = out;
    return true;
  }
  double sum_sq = 0;
  for (int j = 0; j < fp::kDims; ++j) {
    uint16_t s = 0;
    std::memcpy(&s, in + j * 2, 2);
    if (s == 0 || s > 256u * 255u / DescriptorCodecMaxCode(kind) + 256u) {
      return false;  // zero or absurd step: structurally invalid params
    }
    out.step16[j] = s;
    out.lo[j] = in[2 * fp::kDims + j];
    out.axis_error[j] = in[3 * fp::kDims + j];
    const double e = static_cast<double>(out.axis_error[j]);
    sum_sq += e * e;
  }
  if (in[4 * fp::kDims] != DescriptorCodecMaxCode(kind)) {
    return false;  // params written by a different codec width
  }
  out.max_error = std::sqrt(sum_sq);
  *codec = out;
  return true;
}

CodedDescriptorBlock CodedDescriptorBlock::Encode(
    DescriptorCodecKind kind, const DescriptorBlock& block) {
  CodedDescriptorBlock coded;
  coded.codec_ = TrainDescriptorCodec(kind, block.descriptors(), block.size());
  const size_t code_bytes = coded.codec_.code_bytes();
  coded.codes_.resize(block.size() * code_bytes);
  coded.ids_.reserve(block.size());
  coded.time_codes_.reserve(block.size());
  coded.xs_.reserve(block.size());
  coded.ys_.reserve(block.size());
  for (size_t i = 0; i < block.size(); ++i) {
    EncodeDescriptor(coded.codec_, block.descriptor(i),
                     coded.codes_.data() + i * code_bytes);
    coded.ids_.push_back(block.id(i));
    coded.time_codes_.push_back(block.time_code(i));
    coded.xs_.push_back(block.x(i));
    coded.ys_.push_back(block.y(i));
  }
  return coded;
}

}  // namespace s3vcd::core
