// Tests of the pluggable descriptor codecs (core/descriptor_codec): name
// parsing, exact-codec identity, quantized roundtrip error bounds (the
// per-axis bounds are computed exhaustively at training time and must
// hold for every encodable value), serialization of the trained
// parameters, bitwise parity of the fused decode+distance kernels across
// every dispatched variant, and the recall guarantee — the inflated-radius
// quantized match set is a superset of the exact one — measured on a
// 200k-record clustered corpus in both range and statistical modes.

#include "core/descriptor_codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/descriptor_block.h"
#include "core/distortion_model.h"
#include "core/scan_kernel.h"
#include "core/synthetic_db.h"
#include "fingerprint/fingerprint.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

class ScopedKernel {
 public:
  explicit ScopedKernel(ScanKernelKind kind)
      : previous_(SetScanKernelForTest(kind)) {}
  ~ScopedKernel() { SetScanKernelForTest(previous_); }

 private:
  ScanKernelKind previous_;
};

TEST(DescriptorCodecTest, NamesRoundTrip) {
  EXPECT_STREQ(DescriptorCodecName(DescriptorCodecKind::kExactU8), "exact");
  EXPECT_STREQ(DescriptorCodecName(DescriptorCodecKind::kLvq4), "lvq4");
  for (DescriptorCodecKind kind :
       {DescriptorCodecKind::kExactU8, DescriptorCodecKind::kLvq4}) {
    DescriptorCodecKind parsed;
    ASSERT_TRUE(DescriptorCodecFromName(DescriptorCodecName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  DescriptorCodecKind parsed = DescriptorCodecKind::kLvq4;
  EXPECT_FALSE(DescriptorCodecFromName("bogus", &parsed));
  EXPECT_EQ(parsed, DescriptorCodecKind::kLvq4);  // left alone on failure
  EXPECT_FALSE(DescriptorCodecFromName("", &parsed));
  EXPECT_EQ(DescriptorCodecNamesCsv(), "exact, lvq4");
}

TEST(DescriptorCodecTest, CodeBytesAndMaxCodes) {
  EXPECT_EQ(DescriptorCodeBytes(DescriptorCodecKind::kExactU8), 20u);
  EXPECT_EQ(DescriptorCodeBytes(DescriptorCodecKind::kLvq4), 10u);
  EXPECT_EQ(DescriptorCodecMaxCode(DescriptorCodecKind::kExactU8), 255u);
  EXPECT_EQ(DescriptorCodecMaxCode(DescriptorCodecKind::kLvq4), 15u);
}

// Training data in SoA form: n records of clustered descriptors.
std::vector<uint8_t> MakeDescriptors(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<fp::Fingerprint> centers;
  for (int c = 0; c < 8; ++c) {
    centers.push_back(UniformRandomFingerprint(&rng));
  }
  std::vector<uint8_t> out;
  out.reserve(n * fp::kDims);
  for (size_t i = 0; i < n; ++i) {
    const fp::Fingerprint d = DistortFingerprint(
        centers[static_cast<size_t>(rng.UniformInt(0, 7))], 25.0, &rng);
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

TEST(DescriptorCodecTest, ExactCodecIsIdentity) {
  const std::vector<uint8_t> data = MakeDescriptors(64, 1);
  const DescriptorCodec codec = TrainDescriptorCodec(
      DescriptorCodecKind::kExactU8, data.data(), 64);
  EXPECT_TRUE(codec.is_exact());
  EXPECT_EQ(codec.max_error, 0.0);
  uint8_t coded[fp::kDims];
  uint8_t decoded[fp::kDims];
  for (size_t i = 0; i < 64; ++i) {
    const uint8_t* src = data.data() + i * fp::kDims;
    EncodeDescriptor(codec, src, coded);
    EXPECT_EQ(std::memcmp(src, coded, fp::kDims), 0);
    DecodeDescriptor(codec, coded, decoded);
    EXPECT_EQ(std::memcmp(src, decoded, fp::kDims), 0);
  }
}

// The trained per-axis error bound must hold for EVERY value in the
// trained range (not just the training sample), and max_error must be the
// Euclidean composition of the per-axis bounds.
void CheckRoundtripBounds(DescriptorCodecKind kind, uint64_t seed) {
  const size_t n = 512;
  const std::vector<uint8_t> data = MakeDescriptors(n, seed);
  const DescriptorCodec codec = TrainDescriptorCodec(kind, data.data(), n);
  ASSERT_FALSE(codec.is_exact());

  // Roundtrip every training record; per-axis deviation within bound.
  std::vector<uint8_t> coded(codec.code_bytes());
  uint8_t decoded[fp::kDims];
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* src = data.data() + i * fp::kDims;
    EncodeDescriptor(codec, src, coded.data());
    DecodeDescriptor(codec, coded.data(), decoded);
    for (int j = 0; j < fp::kDims; ++j) {
      EXPECT_LE(std::abs(static_cast<int>(decoded[j]) -
                         static_cast<int>(src[j])),
                static_cast<int>(codec.axis_error[j]))
          << DescriptorCodecName(kind) << " record " << i << " axis " << j;
    }
  }

  // Exhaustive: every byte value in the trained range of axis 0 obeys the
  // bound (the trainer computed it by the same exhaustive scan).
  uint8_t lo0 = 255;
  uint8_t hi0 = 0;
  for (size_t i = 0; i < n; ++i) {
    lo0 = std::min(lo0, data[i * fp::kDims]);
    hi0 = std::max(hi0, data[i * fp::kDims]);
  }
  uint8_t probe[fp::kDims] = {};
  for (int v = lo0; v <= hi0; ++v) {
    probe[0] = static_cast<uint8_t>(v);
    EncodeDescriptor(codec, probe, coded.data());
    DecodeDescriptor(codec, coded.data(), decoded);
    EXPECT_LE(std::abs(static_cast<int>(decoded[0]) - v),
              static_cast<int>(codec.axis_error[0]))
        << "value " << v;
  }

  double sum_sq = 0;
  for (int j = 0; j < fp::kDims; ++j) {
    sum_sq += static_cast<double>(codec.axis_error[j]) * codec.axis_error[j];
  }
  EXPECT_DOUBLE_EQ(codec.max_error, std::sqrt(sum_sq));
}

TEST(DescriptorCodecTest, Lvq4RoundtripWithinTrainedBounds) {
  CheckRoundtripBounds(DescriptorCodecKind::kLvq4, 3);
}

TEST(DescriptorCodecTest, SerializationRoundTripsAndValidates) {
  const std::vector<uint8_t> data = MakeDescriptors(256, 4);
  const DescriptorCodec codec =
      TrainDescriptorCodec(DescriptorCodecKind::kLvq4, data.data(), 256);
  uint8_t params[kDescriptorCodecParamsBytes];
  SerializeCodecParams(codec, params);

  DescriptorCodec restored;
  ASSERT_TRUE(
      DeserializeCodecParams(DescriptorCodecKind::kLvq4, params, &restored));
  EXPECT_EQ(restored.kind, codec.kind);
  EXPECT_EQ(restored.lo, codec.lo);
  EXPECT_EQ(restored.step16, codec.step16);
  EXPECT_EQ(restored.axis_error, codec.axis_error);
  EXPECT_DOUBLE_EQ(restored.max_error, codec.max_error);

  // A zeroed step is structurally invalid (decode would divide the range
  // into nothing); the reader must refuse it.
  uint8_t zero_step[kDescriptorCodecParamsBytes];
  std::memcpy(zero_step, params, sizeof(params));
  zero_step[0] = 0;
  zero_step[1] = 0;
  EXPECT_FALSE(
      DeserializeCodecParams(DescriptorCodecKind::kLvq4, zero_step, &restored));

  // Params of another code width must not deserialize as lvq4: the maxcode
  // byte pins the family, so a blob claiming 8-bit codes (maxcode 255) is
  // refused even with valid steps.
  uint8_t wide[kDescriptorCodecParamsBytes];
  std::memcpy(wide, params, sizeof(params));
  wide[4 * fp::kDims] = 255;
  EXPECT_FALSE(
      DeserializeCodecParams(DescriptorCodecKind::kLvq4, wide, &restored));
}

TEST(CodedDescriptorBlockTest, EncodesWithTheExpectedByteReduction) {
  Rng rng(5);
  DescriptorBlock block;
  for (int i = 0; i < 100; ++i) {
    block.Append(UniformRandomFingerprint(&rng), static_cast<uint32_t>(i),
                 static_cast<uint32_t>(i), 0.5f, 0.25f);
  }
  const CodedDescriptorBlock lvq4 =
      CodedDescriptorBlock::Encode(DescriptorCodecKind::kLvq4, block);
  EXPECT_EQ(lvq4.size(), block.size());
  EXPECT_EQ(lvq4.coded_descriptor_bytes(), block.size() * 10u);
  const DescriptorView view = lvq4.View();
  EXPECT_EQ(view.desc_bytes, 10u);
  ASSERT_NE(view.codec, nullptr);
  EXPECT_EQ(view.codec->kind, DescriptorCodecKind::kLvq4);
}

DescriptorBlock MakeClusteredBlock(size_t n, uint64_t seed,
                                   std::vector<fp::Fingerprint>* centers_out) {
  Rng rng(seed);
  std::vector<fp::Fingerprint> centers;
  for (int c = 0; c < 16; ++c) {
    centers.push_back(UniformRandomFingerprint(&rng));
  }
  DescriptorBlock block;
  block.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    block.Append(
        DistortFingerprint(
            centers[static_cast<size_t>(rng.UniformInt(0, 15))], 25.0, &rng),
        static_cast<uint32_t>(i % 64), static_cast<uint32_t>(i),
        static_cast<float>(i % 5), static_cast<float>(i % 9));
  }
  if (centers_out != nullptr) {
    *centers_out = std::move(centers);
  }
  return block;
}

void ExpectSameResults(const QueryResult& a, const QueryResult& b,
                       const char* label) {
  EXPECT_EQ(a.stats.records_scanned, b.stats.records_scanned) << label;
  EXPECT_EQ(a.stats.descriptor_bytes_scanned,
            b.stats.descriptor_bytes_scanned)
      << label;
  ASSERT_EQ(a.matches.size(), b.matches.size()) << label;
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].id, b.matches[i].id) << label << " match " << i;
    EXPECT_EQ(a.matches[i].time_code, b.matches[i].time_code)
        << label << " match " << i;
    // Decode-then-distance is deterministic integer arithmetic: the float
    // distances must be bitwise identical across kernels, 0 ULP apart.
    EXPECT_EQ(a.matches[i].distance, b.matches[i].distance)
        << label << " match " << i;
  }
}

// Every dispatched kernel must produce bitwise-identical results on a
// quantized view, in every refinement mode — the fused decoders share one
// integer decode formula with the scalar reference.
TEST(CodedScanTest, FusedKernelsMatchScalarBitwise) {
  Rng rng(6);
  const DescriptorBlock block = MakeClusteredBlock(7001, 6, nullptr);
  const fp::Fingerprint query =
      DistortFingerprint(block.Record(17).descriptor, 18.0, &rng);
  const GaussianDistortionModel model(20.0);
  const struct {
    RefinementMode mode;
    double radius;
    const DistortionModel* model;
  } cases[] = {
      {RefinementMode::kAll, 0.0, nullptr},
      {RefinementMode::kRadiusFilter, 90.0, nullptr},
      {RefinementMode::kNormalizedRadiusFilter, 4.5, &model},
  };
  const CodedDescriptorBlock coded =
      CodedDescriptorBlock::Encode(DescriptorCodecKind::kLvq4, block);
  for (const auto& c : cases) {
    const RefineSpec spec(c.mode, c.radius, c.model);
    QueryResult scalar;
    {
      ScopedKernel guard(ScanKernelKind::kScalar);
      ScanRecords(query, coded.View(), 0, coded.size(), spec, &scalar);
    }
    // The blocked scan must also agree with the per-record refine loop.
    QueryResult reference;
    for (size_t i = 0; i < coded.size(); ++i) {
      RefineRecord(query, coded.View(), i, spec, &reference);
    }
    ExpectSameResults(scalar, reference, "refine-loop");
    for (ScanKernelKind kernel :
         {ScanKernelKind::kSse2, ScanKernelKind::kAvx2}) {
      if (!ScanKernelAvailable(kernel)) {
        continue;
      }
      ScopedKernel guard(kernel);
      QueryResult simd;
      ScanRecords(query, coded.View(), 0, coded.size(), spec, &simd);
      ExpectSameResults(scalar, simd, ScanKernelName(kernel));
    }
  }
}

// The acceptance metric: a quantized sweep touches code_bytes per record,
// so lvq4 halves descriptor_bytes_scanned relative to the exact sweep.
TEST(CodedScanTest, DescriptorBytesScannedReflectsCodeBytes) {
  const DescriptorBlock block = MakeClusteredBlock(1000, 7, nullptr);
  Rng rng(7);
  const fp::Fingerprint query = UniformRandomFingerprint(&rng);
  const RefineSpec spec(RefinementMode::kRadiusFilter, 90.0, nullptr);
  QueryResult exact;
  ScanRecords(query, block, 0, block.size(), spec, &exact);
  EXPECT_EQ(exact.stats.descriptor_bytes_scanned, 1000u * 20u);
  const CodedDescriptorBlock lvq4 =
      CodedDescriptorBlock::Encode(DescriptorCodecKind::kLvq4, block);
  QueryResult coded;
  ScanRecords(query, lvq4.View(), 0, lvq4.size(), spec, &coded);
  EXPECT_EQ(coded.stats.descriptor_bytes_scanned, 1000u * 10u);
  EXPECT_EQ(exact.stats.descriptor_bytes_scanned,
            2u * coded.stats.descriptor_bytes_scanned);
}

// The recall guarantee on a 200k-record corpus, in both refinement modes
// the backends use (geometric range and model-normalized statistical):
// with the radius inflated by the codec's reconstruction error bound, the
// quantized match set must CONTAIN the exact match set — recall 1.0,
// comfortably above the 0.99 acceptance floor — while scanning half the
// descriptor bytes under lvq4.
TEST(CodedScanTest, QuantizedRecallOnLargeCorpus) {
  const size_t kCorpus = 200000;
  const DescriptorBlock block = MakeClusteredBlock(kCorpus, 8, nullptr);
  const GaussianDistortionModel model(20.0);
  Rng rng(9);
  std::vector<fp::Fingerprint> queries;
  for (int q = 0; q < 12; ++q) {
    queries.push_back(DistortFingerprint(
        block.Record(static_cast<size_t>(
                          rng.UniformInt(0, static_cast<int64_t>(kCorpus) - 1)))
            .descriptor,
        18.0, &rng));
  }
  const struct {
    const char* name;
    RefinementMode mode;
    double radius;
    const DistortionModel* model;
  } modes[] = {
      {"range", RefinementMode::kRadiusFilter, 90.0, nullptr},
      {"stat", RefinementMode::kNormalizedRadiusFilter, 4.5, &model},
  };
  const CodedDescriptorBlock coded =
      CodedDescriptorBlock::Encode(DescriptorCodecKind::kLvq4, block);
  size_t exact_total = 0;
  size_t recovered_total = 0;
  for (const auto& m : modes) {
    const RefineSpec spec(m.mode, m.radius, m.model);
    for (const fp::Fingerprint& query : queries) {
      QueryResult exact;
      ScanRecords(query, block, 0, block.size(), spec, &exact);
      QueryResult quant;
      ScanRecords(query, coded.View(), 0, coded.size(), spec, &quant);
      std::set<std::pair<uint32_t, uint32_t>> quant_keys;
      for (const auto& match : quant.matches) {
        quant_keys.emplace(match.id, match.time_code);
      }
      exact_total += exact.matches.size();
      for (const auto& match : exact.matches) {
        recovered_total +=
            quant_keys.count({match.id, match.time_code}) ? 1 : 0;
      }
    }
  }
  ASSERT_GT(exact_total, 0u);
  const double recall = static_cast<double>(recovered_total) / exact_total;
  EXPECT_GE(recall, 0.99);
  // The inflated radius makes the quantized set a strict superset, so
  // recall is in fact exactly 1.0.
  EXPECT_DOUBLE_EQ(recall, 1.0);
}

}  // namespace
}  // namespace s3vcd::core
