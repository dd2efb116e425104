#ifndef S3VCD_CORE_DESCRIPTOR_CODEC_H_
#define S3VCD_CORE_DESCRIPTOR_CODEC_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/descriptor_block.h"
#include "fingerprint/fingerprint.h"

namespace s3vcd::core {

/// The pluggable descriptor representation ("codec") behind every scan
/// surface. A codec maps the exact 20-byte u8 descriptor to a packed code
/// and back; the refinement kernels (core/scan_kernel) fuse the decode
/// into the distance accumulation so quantized stores are scanned without
/// materializing exact bytes.
///
/// Codecs:
///   exact  20 B/record, bit-identical roundtrip, the default everywhere.
///   lvq4   10 B/record, LVQ-style per-axis scale+bias 4-bit codes, two
///          axes per byte (even axis in the low nibble): the 2x
///          byte-reduction codec. Reconstruction error per axis is bounded
///          by the trained step (~range/15).
/// On-disk tag 1 belonged to a retired 8-bit codec (20 B/record like exact,
/// and slower to scan); segment readers refuse it as unknown.
///
/// Distance semantics on a quantized view: the kernels compute the exact
/// integer squared distance between the query and the *decoded* record
/// v̂ = min(255, lo_j + ((c * step16_j + 128) >> 8)) — deterministic pure
/// integer arithmetic, so every kernel variant (scalar/SSE2/AVX2) returns
/// bitwise-identical distances. Radius tests are inflated by the codec's
/// max reconstruction error E = sqrt(sum_j e_j^2), which makes the
/// quantized match set a guaranteed superset of the exact one (recall 1.0
/// with respect to membership; reported distances are the decoded-point
/// distances). The exact path — memtable, exact segments, all in-memory
/// backends — re-ranks those candidates for free because it scans exact
/// bytes.
///
/// The enum values are the on-disk codec tags of `.s3seg` files.
enum class DescriptorCodecKind : uint8_t {
  kExactU8 = 0,  ///< packed exact bytes, the historical layout
  kLvq4 = 2,     ///< 4-bit codes, two axes per byte
};

/// Display/parse name: "exact", "lvq4".
const char* DescriptorCodecName(DescriptorCodecKind kind);
/// Parses a codec name; returns false (and leaves *kind alone) on unknown
/// names.
bool DescriptorCodecFromName(const std::string& name,
                             DescriptorCodecKind* kind);
/// "exact, lvq4" — for error messages and usage lines.
std::string DescriptorCodecNamesCsv();

/// Encoded bytes per record: 20 / 10.
size_t DescriptorCodeBytes(DescriptorCodecKind kind);
/// Largest code value per axis: 255 / 15.
uint32_t DescriptorCodecMaxCode(DescriptorCodecKind kind);

/// A trained codec: kind + per-axis parameters + the exact reconstruction
/// error bounds derived from them. Trivially copyable; owners (segments,
/// coded blocks) embed one and hand scans a pointer via DescriptorView.
struct DescriptorCodec {
  DescriptorCodecKind kind = DescriptorCodecKind::kExactU8;
  /// Per-axis bias: the smallest value seen at training time.
  std::array<uint8_t, fp::kDims> lo{};
  /// Per-axis fixed-point step, scale * 256 (>= 1). Decode multiplies the
  /// code by this and shifts right 8 with rounding.
  std::array<uint16_t, fp::kDims> step16{};
  /// Exact per-axis max |decode(encode(v)) - v| over the trained range,
  /// computed by exhaustive scan at training time (integers, so exact).
  std::array<uint8_t, fp::kDims> axis_error{};
  /// sqrt(sum_j axis_error_j^2): the Euclidean reconstruction error bound
  /// used to inflate radius tests on quantized scans.
  double max_error = 0;

  bool is_exact() const { return kind == DescriptorCodecKind::kExactU8; }
  size_t code_bytes() const { return DescriptorCodeBytes(kind); }
  const char* name() const { return DescriptorCodecName(kind); }
  /// Reconstruction error bound in model-normalized units:
  /// sqrt(sum_j axis_error_j^2 * inv_scale_sq_j).
  double NormalizedMaxError(const double* inv_scale_sq) const;
};

/// Trains codec parameters of `kind` over `n` packed exact descriptors
/// (per-axis min/max -> lo/step16) and computes the exact error bounds.
/// Training an exact codec returns the identity codec. Deterministic.
DescriptorCodec TrainDescriptorCodec(DescriptorCodecKind kind,
                                     const uint8_t* descriptors, size_t n);

/// Encodes one exact descriptor (fp::kDims bytes) into codec.code_bytes()
/// output bytes. For lvq4 the even axis lands in the low nibble.
void EncodeDescriptor(const DescriptorCodec& codec, const uint8_t* src,
                      uint8_t* dst);

/// Decodes one coded record back to fp::kDims exact-domain bytes using the
/// deterministic integer formula the kernels fuse.
void DecodeDescriptor(const DescriptorCodec& codec, const uint8_t* src,
                      uint8_t* dst);

/// On-disk serialization of the trained parameters (the codec-params
/// section of `.s3seg` version 2): step16 LE + lo + axis_error + maxcode,
/// zero-padded to kDescriptorCodecParamsBytes. Exact codecs serialize to
/// an empty section instead.
inline constexpr size_t kDescriptorCodecParamsBytes = 96;
void SerializeCodecParams(const DescriptorCodec& codec,
                          uint8_t out[kDescriptorCodecParamsBytes]);
/// Rebuilds a codec of `kind` from a serialized params blob. Returns false
/// on structurally invalid params (zero step, maxcode mismatch).
bool DeserializeCodecParams(DescriptorCodecKind kind, const uint8_t* in,
                            DescriptorCodec* codec);

/// A structure-of-arrays record store in *encoded* form: the quantized
/// counterpart of DescriptorBlock. Built by encoding an exact block (or
/// appending pre-encoded rows); serves a DescriptorView whose codec field
/// routes scans through the fused decode kernels. Used by the quantized
/// benches, the recall tests, and any in-memory consumer that wants the
/// byte reduction without a segment file.
class CodedDescriptorBlock {
 public:
  /// Trains `kind` on `block` and encodes every record.
  static CodedDescriptorBlock Encode(DescriptorCodecKind kind,
                                     const DescriptorBlock& block);

  const DescriptorCodec& codec() const { return codec_; }
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  /// Encoded payload bytes (size() * codec().code_bytes()).
  uint64_t coded_descriptor_bytes() const { return codes_.size(); }

  /// A view over the encoded arrays, valid until the next mutation. The
  /// view's codec pointer is into this object.
  DescriptorView View() const {
    DescriptorView view{codes_.data(), ids_.data(), time_codes_.data(),
                        xs_.data(),    ys_.data(),  ids_.size()};
    view.desc_bytes = codec_.code_bytes();
    view.codec = &codec_;
    return view;
  }

 private:
  DescriptorCodec codec_;
  std::vector<uint8_t> codes_;  ///< size() * code_bytes packed codes
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> time_codes_;
  std::vector<float> xs_;
  std::vector<float> ys_;
};

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_DESCRIPTOR_CODEC_H_
