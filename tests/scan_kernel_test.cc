// Tests of the shared refinement kernel (core/scan_kernel): runtime
// dispatch and the S3VCD_SCAN_KERNEL override, the RefineSpec weight table,
// the pinned Match.distance semantics of normalized mode, bitwise parity
// of the SIMD kernels against the scalar reference, and ScanRecords vs the
// per-record RefineRecord loop.

#include "core/scan_kernel.h"

#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/descriptor_block.h"
#include "core/descriptor_codec.h"
#include "core/distortion_model.h"
#include "core/synthetic_db.h"
#include "fingerprint/fingerprint.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

// Restores the dispatched kernel on scope exit so tests cannot leak an
// override into each other.
class ScopedKernel {
 public:
  explicit ScopedKernel(ScanKernelKind kind)
      : previous_(SetScanKernelForTest(kind)) {}
  ~ScopedKernel() { SetScanKernelForTest(previous_); }

 private:
  ScanKernelKind previous_;
};

// The kernel dispatch must pick when no valid override is set: the
// measured-fastest one this CPU supports, not the widest ISA.
ScanKernelKind ExpectedDefaultKernel() {
  if (ScanKernelAvailable(ScanKernelKind::kAvx2)) {
    return ScanKernelKind::kAvx2;
  }
  if (ScanKernelAvailable(ScanKernelKind::kSse2)) {
    return ScanKernelKind::kSse2;
  }
  return ScanKernelKind::kScalar;
}

// First test in the binary: the kernel is detected on the first
// ActiveScanKernel() call, so this test sees exactly what DetectKernel
// chose and what it printed. The scan_kernel_test_forced_scalar ctest
// entry runs this same binary with S3VCD_SCAN_KERNEL=scalar, which must
// force the scalar kernel; scan_kernel_test_retired_avx512 runs it with
// S3VCD_SCAN_KERNEL=avx512, a retired name that must warn and leave the
// default in place.
TEST(ScanKernelDispatchTest, EnvOverrideForcesScalar) {
  testing::internal::CaptureStderr();
  const ScanKernelKind active = ActiveScanKernel();
  const std::string warning = testing::internal::GetCapturedStderr();
  const char* env = std::getenv("S3VCD_SCAN_KERNEL");
  const std::string forced = env != nullptr ? env : "";
  if (forced == "scalar") {
    EXPECT_EQ(active, ScanKernelKind::kScalar);
    EXPECT_EQ(warning, "");
  } else if (forced.empty()) {
    EXPECT_EQ(active, ExpectedDefaultKernel());  // kAvx2 whenever available
    EXPECT_EQ(warning, "");
  } else if (forced == "avx512") {
    EXPECT_EQ(active, ExpectedDefaultKernel());
    EXPECT_NE(warning.find("unknown S3VCD_SCAN_KERNEL 'avx512'"),
              std::string::npos)
        << warning;
  } else {
    EXPECT_TRUE(ScanKernelAvailable(active));
  }
  EXPECT_TRUE(ScanKernelAvailable(ScanKernelKind::kScalar));
  EXPECT_STREQ(ScanKernelName(ScanKernelKind::kScalar), "scalar");
  EXPECT_STREQ(ScanKernelName(ScanKernelKind::kSse2), "sse2");
  EXPECT_STREQ(ScanKernelName(ScanKernelKind::kAvx2), "avx2");
  EXPECT_STREQ(ActiveScanKernelName(), ScanKernelName(active));
}

TEST(ScanKernelDispatchTest, SetScanKernelForTestRoundTrips) {
  const ScanKernelKind initial = ActiveScanKernel();
  {
    ScopedKernel guard(ScanKernelKind::kScalar);
    EXPECT_EQ(ActiveScanKernel(), ScanKernelKind::kScalar);
  }
  EXPECT_EQ(ActiveScanKernel(), initial);
}

TEST(RefineSpecTest, NormalizedModePrecomputesInverseSquaredScales) {
  const GaussianDistortionModel model(5.0);
  const RefineSpec spec(RefinementMode::kNormalizedRadiusFilter, 4.0, &model);
  EXPECT_DOUBLE_EQ(spec.radius_sq, 16.0);
  for (int j = 0; j < fp::kDims; ++j) {
    EXPECT_DOUBLE_EQ(spec.inv_scale_sq[j], 1.0 / 25.0) << "component " << j;
  }
}

TEST(RefineSpecTest, IntegerModesLeaveWeightTableUntouched) {
  const RefineSpec spec(RefinementMode::kRadiusFilter, 90.0, nullptr);
  for (int j = 0; j < fp::kDims; ++j) {
    EXPECT_DOUBLE_EQ(spec.inv_scale_sq[j], 0.0);
  }
}

// Pins the normalized-mode Match.distance semantics documented on
// RefineRecord: the model-normalized distance in sigma units, NOT the
// Euclidean byte-space distance.
TEST(RefineRecordTest, NormalizedModeReportsNormalizedDistance) {
  DescriptorBlock block;
  fp::Fingerprint record;
  record.fill(10);
  block.Append(record, /*id=*/7, /*time_code=*/42, 1.0f, 2.0f);

  fp::Fingerprint query;
  query.fill(0);
  const GaussianDistortionModel model(5.0);
  const RefineSpec spec(RefinementMode::kNormalizedRadiusFilter,
                        /*radius=*/10.0, &model);

  QueryResult result;
  ASSERT_TRUE(RefineRecord(query, block, 0, spec, &result));
  ASSERT_EQ(result.matches.size(), 1u);
  EXPECT_EQ(result.stats.records_scanned, 1u);
  // sum_j ((10 - 0) / 5)^2 = 20 * 4 = 80.
  EXPECT_FLOAT_EQ(result.matches[0].distance,
                  static_cast<float>(std::sqrt(80.0)));
  // The Euclidean distance sqrt(20 * 100) = sqrt(2000) is not what this
  // mode reports.
  EXPECT_NE(result.matches[0].distance,
            static_cast<float>(std::sqrt(2000.0)));
  EXPECT_EQ(result.matches[0].id, 7u);
  EXPECT_EQ(result.matches[0].time_code, 42u);
}

TEST(RefineRecordTest, NormalizedModeRejectsOutsideSigmaRadius) {
  DescriptorBlock block;
  fp::Fingerprint record;
  record.fill(10);
  block.Append(record, 1, 1, 0.0f, 0.0f);
  fp::Fingerprint query;
  query.fill(0);
  const GaussianDistortionModel model(5.0);
  // Normalized distance is sqrt(80) ~ 8.94 sigma; radius 8 rejects it.
  const RefineSpec spec(RefinementMode::kNormalizedRadiusFilter, 8.0, &model);
  QueryResult result;
  EXPECT_FALSE(RefineRecord(query, block, 0, spec, &result));
  EXPECT_TRUE(result.matches.empty());
  EXPECT_EQ(result.stats.records_scanned, 1u);  // still counted as touched
}

TEST(RefineRecordTest, EuclideanModeReportsByteSpaceDistance) {
  DescriptorBlock block;
  fp::Fingerprint record;
  record.fill(3);
  block.Append(record, 1, 1, 0.0f, 0.0f);
  fp::Fingerprint query;
  query.fill(0);
  const RefineSpec spec(RefinementMode::kRadiusFilter, 90.0, nullptr);
  QueryResult result;
  ASSERT_TRUE(RefineRecord(query, block, 0, spec, &result));
  // sqrt(20 * 9) = sqrt(180).
  EXPECT_FLOAT_EQ(result.matches[0].distance,
                  static_cast<float>(std::sqrt(180.0)));
}

// A block of random records plus planted exact query copies (distance 0)
// and a few boundary records.
DescriptorBlock MakeTestBlock(const fp::Fingerprint& query, size_t n,
                              Rng* rng) {
  DescriptorBlock block;
  block.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    fp::Fingerprint d;
    if (i % 97 == 0) {
      d = query;  // exact duplicate
    } else if (i % 13 == 0) {
      d = DistortFingerprint(query, 20.0, rng);  // near the radius boundary
    } else {
      d = UniformRandomFingerprint(rng);
    }
    block.Append(d, static_cast<uint32_t>(i % 50), static_cast<uint32_t>(i),
                 static_cast<float>(i % 7), static_cast<float>(i % 11));
  }
  return block;
}

void ExpectSameResults(const QueryResult& a, const QueryResult& b,
                       const char* label) {
  EXPECT_EQ(a.stats.records_scanned, b.stats.records_scanned) << label;
  ASSERT_EQ(a.matches.size(), b.matches.size()) << label;
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].id, b.matches[i].id) << label << " match " << i;
    EXPECT_EQ(a.matches[i].time_code, b.matches[i].time_code)
        << label << " match " << i;
    // The integer distance path is exact, so the reported float distances
    // must be bitwise identical (0 ULP), not merely close.
    EXPECT_EQ(a.matches[i].distance, b.matches[i].distance)
        << label << " match " << i;
    EXPECT_EQ(a.matches[i].x, b.matches[i].x) << label << " match " << i;
    EXPECT_EQ(a.matches[i].y, b.matches[i].y) << label << " match " << i;
  }
}

// ScanRecords (blocked, dispatched) must be observationally identical to
// the per-record RefineRecord loop in every mode.
TEST(ScanRecordsTest, MatchesRefineRecordLoopInEveryMode) {
  Rng rng(11);
  const fp::Fingerprint query = UniformRandomFingerprint(&rng);
  const DescriptorBlock block = MakeTestBlock(query, 3001, &rng);
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
  for (const auto& c : cases) {
    const RefineSpec spec(c.mode, c.radius, c.model);
    QueryResult blocked;
    ScanRecords(query, block, 0, block.size(), spec, &blocked);
    QueryResult reference;
    for (size_t i = 0; i < block.size(); ++i) {
      RefineRecord(query, block, i, spec, &reference);
    }
    ExpectSameResults(blocked, reference, "mode");
    if (c.mode == RefinementMode::kAll) {
      EXPECT_EQ(blocked.matches.size(), block.size());
    }
  }
  // Sub-range scans respect [first, last) and the accounting.
  const RefineSpec spec(RefinementMode::kRadiusFilter, 90.0, nullptr);
  QueryResult slice;
  ScanRecords(query, block, 100, 173, spec, &slice);
  EXPECT_EQ(slice.stats.records_scanned, 73u);
  QueryResult empty;
  ScanRecords(query, block, 50, 50, spec, &empty);
  EXPECT_EQ(empty.stats.records_scanned, 0u);
  EXPECT_TRUE(empty.matches.empty());
}

// Every available SIMD kernel must produce results bitwise identical to
// the scalar reference: same matches, same float distances (the integer
// path is exact), same records_scanned.
TEST(ScanRecordsTest, SimdKernelsMatchScalarBitwise) {
  Rng rng(12);
  const fp::Fingerprint query = UniformRandomFingerprint(&rng);
  const DescriptorBlock block = MakeTestBlock(query, 5003, &rng);
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
  for (const auto& c : cases) {
    const RefineSpec spec(c.mode, c.radius, c.model);
    QueryResult scalar;
    {
      ScopedKernel guard(ScanKernelKind::kScalar);
      ScanRecords(query, block, 0, block.size(), spec, &scalar);
    }
    for (ScanKernelKind kind :
         {ScanKernelKind::kSse2, ScanKernelKind::kAvx2}) {
      if (!ScanKernelAvailable(kind)) {
        continue;
      }
      ScopedKernel guard(kind);
      QueryResult simd;
      ScanRecords(query, block, 0, block.size(), spec, &simd);
      ExpectSameResults(scalar, simd, ScanKernelName(kind));
    }
  }
}

// --- Gather kernels (GatherScorer) --------------------------------------

// Random candidate index sets of every awkward shape the beam search can
// produce: empty, singleton, duplicates, first/last record, descending.
std::vector<std::vector<uint32_t>> MakeIndexSets(size_t n, Rng* rng) {
  std::vector<std::vector<uint32_t>> sets;
  sets.push_back({});
  sets.push_back({0});
  sets.push_back({static_cast<uint32_t>(n - 1)});
  sets.push_back({5, 5, 5, 5});  // repeats are allowed
  std::vector<uint32_t> descending;
  for (uint32_t i = 0; i < 33; ++i) {
    descending.push_back(static_cast<uint32_t>(n - 1 - i));
  }
  sets.push_back(std::move(descending));
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<uint32_t> ids(
        static_cast<size_t>(rng->UniformInt(1, 257)));
    for (auto& id : ids) {
      id = static_cast<uint32_t>(
          rng->UniformInt(0, static_cast<int64_t>(n) - 1));
    }
    sets.push_back(std::move(ids));
  }
  return sets;
}

// The gathered exact-view distances are the same integers
// SquaredDistanceU32 computes per record, on every available kernel.
TEST(GatherScorerTest, ExactViewMatchesSquaredDistanceU32Bitwise) {
  Rng rng(16);
  const fp::Fingerprint query = UniformRandomFingerprint(&rng);
  const DescriptorBlock block = MakeTestBlock(query, 2111, &rng);
  const DescriptorView view = block.View();
  const auto sets = MakeIndexSets(block.size(), &rng);
  for (ScanKernelKind kind :
       {ScanKernelKind::kScalar, ScanKernelKind::kSse2,
        ScanKernelKind::kAvx2}) {
    if (!ScanKernelAvailable(kind)) {
      continue;
    }
    ScopedKernel guard(kind);
    const GatherScorer scorer(query, view);
    EXPECT_EQ(scorer.desc_bytes(), static_cast<size_t>(fp::kDims));
    for (const auto& ids : sets) {
      std::vector<uint32_t> out(ids.size() + 1, 0xDEADBEEFu);
      scorer.Score(ids.data(), ids.size(), out.data());
      for (size_t i = 0; i < ids.size(); ++i) {
        ASSERT_EQ(out[i],
                  SquaredDistanceU32(query.data(), view.descriptor(ids[i])))
            << ScanKernelName(kind) << " index " << ids[i];
      }
      // One-past-the-end must be untouched (k distances, no overwrite).
      EXPECT_EQ(out[ids.size()], 0xDEADBEEFu) << ScanKernelName(kind);
    }
  }
}

// On lvq4 views every kernel returns the exact integer distance to the
// *decoded* record — bitwise identical to decoding with DecodeDescriptor
// and running SquaredDistanceU32, and identical across scalar/SSE2/AVX2.
TEST(GatherScorerTest, CodedViewsMatchDecodedReferenceBitwise) {
  Rng rng(17);
  const fp::Fingerprint query = UniformRandomFingerprint(&rng);
  const DescriptorBlock block = MakeTestBlock(query, 1999, &rng);
  const CodedDescriptorBlock coded =
      CodedDescriptorBlock::Encode(DescriptorCodecKind::kLvq4, block);
  const DescriptorView view = coded.View();
  const auto sets = MakeIndexSets(coded.size(), &rng);
  for (ScanKernelKind kind :
       {ScanKernelKind::kScalar, ScanKernelKind::kSse2,
        ScanKernelKind::kAvx2}) {
    if (!ScanKernelAvailable(kind)) {
      continue;
    }
    ScopedKernel guard(kind);
    const GatherScorer scorer(query, view);
    EXPECT_EQ(scorer.desc_bytes(), coded.codec().code_bytes());
    for (const auto& ids : sets) {
      std::vector<uint32_t> out(ids.size());
      scorer.Score(ids.data(), ids.size(), out.data());
      for (size_t i = 0; i < ids.size(); ++i) {
        uint8_t decoded[fp::kDims];
        DecodeDescriptor(coded.codec(), view.descriptor(ids[i]), decoded);
        ASSERT_EQ(out[i], SquaredDistanceU32(query.data(), decoded))
            << ScanKernelName(kind) << " index " << ids[i];
      }
    }
  }
}

TEST(ScanKernelTest, SquaredDistanceU32MatchesFingerprintDistance) {
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const fp::Fingerprint a = UniformRandomFingerprint(&rng);
    const fp::Fingerprint b = UniformRandomFingerprint(&rng);
    EXPECT_EQ(SquaredDistanceU32(a.data(), b.data()),
              static_cast<uint32_t>(fp::SquaredDistance(a, b)));
  }
}

}  // namespace
}  // namespace s3vcd::core
