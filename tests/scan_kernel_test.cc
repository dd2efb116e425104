// Tests of the shared refinement kernel (core/scan_kernel): runtime
// dispatch and the S3VCD_SCAN_KERNEL override, the RefineSpec weight table,
// the pinned Match.distance semantics of normalized mode, bitwise parity
// of the SIMD kernels against the scalar reference, and ScanRecords vs the
// per-record RefineRecord loop.

#include "core/scan_kernel.h"

#include <array>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/descriptor_block.h"
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

// Scale 5 on every component but the last, which has scale 10: an
// anisotropic model, so normalized mode keeps its scalar weighted path.
PerComponentGaussianModel AnisotropicModel() {
  std::array<double, fp::kDims> sigmas;
  sigmas.fill(5.0);
  sigmas[fp::kDims - 1] = 10.0;
  return PerComponentGaussianModel(sigmas);
}

TEST(RefineSpecTest, NormalizedModePrecomputesInverseSquaredScales) {
  const PerComponentGaussianModel model = AnisotropicModel();
  const RefineSpec spec(RefinementMode::kNormalizedRadiusFilter, 4.0, &model);
  EXPECT_EQ(spec.mode, RefinementMode::kNormalizedRadiusFilter);
  EXPECT_DOUBLE_EQ(spec.radius_sq, 16.0);
  for (int j = 0; j + 1 < fp::kDims; ++j) {
    EXPECT_DOUBLE_EQ(spec.inv_scale_sq[j], 1.0 / 25.0) << "component " << j;
  }
  EXPECT_DOUBLE_EQ(spec.inv_scale_sq[fp::kDims - 1], 1.0 / 100.0);
}

// On an isotropic model the normalized filter at rho is the byte-space
// filter at rho * sigma, spec for spec: same mode, same squared radius, no
// weight table.
TEST(RefineSpecTest, IsotropicNormalizedModeLowersToRadiusFilter) {
  for (const double sigma : {5.0, 12.0, 15.0}) {
    const GaussianDistortionModel model(sigma);
    const RefineSpec lowered(RefinementMode::kNormalizedRadiusFilter, 9.0,
                             &model);
    const RefineSpec byte_space(RefinementMode::kRadiusFilter, 9.0 * sigma,
                                nullptr);
    EXPECT_EQ(lowered.mode, RefinementMode::kRadiusFilter) << sigma;
    EXPECT_EQ(lowered.radius_sq, byte_space.radius_sq) << sigma;
    for (int j = 0; j < fp::kDims; ++j) {
      EXPECT_EQ(lowered.inv_scale_sq[j], 0.0) << sigma << " component " << j;
    }
  }
}

TEST(RefineSpecTest, IntegerModesLeaveWeightTableUntouched) {
  const RefineSpec spec(RefinementMode::kRadiusFilter, 90.0, nullptr);
  for (int j = 0; j < fp::kDims; ++j) {
    EXPECT_DOUBLE_EQ(spec.inv_scale_sq[j], 0.0);
  }
}

// Pins the normalized-mode Match.distance semantics documented on
// RefineRecord: on an anisotropic model, the model-normalized distance in
// sigma units, NOT the Euclidean byte-space distance.
TEST(RefineRecordTest, NormalizedModeReportsNormalizedDistance) {
  DescriptorBlock block;
  fp::Fingerprint record;
  record.fill(10);
  block.Append(record, /*id=*/7, /*time_code=*/42, 1.0f, 2.0f);

  fp::Fingerprint query;
  query.fill(0);
  const PerComponentGaussianModel model = AnisotropicModel();
  const RefineSpec spec(RefinementMode::kNormalizedRadiusFilter,
                        /*radius=*/10.0, &model);

  QueryResult result;
  ASSERT_TRUE(RefineRecord(query, block, 0, spec, &result));
  ASSERT_EQ(result.matches.size(), 1u);
  EXPECT_EQ(result.stats.records_scanned, 1u);
  // 19 * ((10 - 0) / 5)^2 + ((10 - 0) / 10)^2 = 76 + 1 = 77.
  EXPECT_FLOAT_EQ(result.matches[0].distance,
                  static_cast<float>(std::sqrt(77.0)));
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
  const PerComponentGaussianModel model = AnisotropicModel();
  // Normalized distance is sqrt(77) ~ 8.77 sigma; radius 8 rejects it.
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
  const PerComponentGaussianModel anisotropic = AnisotropicModel();
  const struct {
    RefinementMode mode;
    double radius;
    const DistortionModel* model;
  } cases[] = {
      {RefinementMode::kAll, 0.0, nullptr},
      {RefinementMode::kRadiusFilter, 90.0, nullptr},
      {RefinementMode::kNormalizedRadiusFilter, 4.5, &model},
      {RefinementMode::kNormalizedRadiusFilter, 18.0, &anisotropic},
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
  const PerComponentGaussianModel anisotropic = AnisotropicModel();
  const struct {
    RefinementMode mode;
    double radius;
    const DistortionModel* model;
  } cases[] = {
      {RefinementMode::kAll, 0.0, nullptr},
      {RefinementMode::kRadiusFilter, 90.0, nullptr},
      {RefinementMode::kNormalizedRadiusFilter, 4.5, &model},
      {RefinementMode::kNormalizedRadiusFilter, 18.0, &anisotropic},
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

// --- The copy radius: normalized filter on isotropic models -------------

constexpr double kRho = 9.0;     // the detector's copy radius, in sigmas
constexpr double kSigma = 15.0;  // the monitoring model: rho sigma = 135

// MakeTestBlock plus two records around the radius: one at squared
// distance exactly (rho sigma)^2 = 135^2 = 81^2 + 108^2, and one a unit
// past it.
DescriptorBlock MakeBoundaryBlock(const fp::Fingerprint& query, Rng* rng) {
  DescriptorBlock block = MakeTestBlock(query, 4001, rng);
  for (const int extra : {0, 1}) {
    fp::Fingerprint d;
    d.fill(128);
    d[0] = static_cast<uint8_t>(128 - 81);
    d[1] = static_cast<uint8_t>(128 - 108);
    d[2] = static_cast<uint8_t>(128 + extra);
    block.Append(d, 900 + extra, 7, 0.0f, 0.0f);
  }
  return block;
}

fp::Fingerprint MidQuery() {
  fp::Fingerprint q;
  q.fill(128);
  return q;
}

// The normalized filter at rho on an isotropic model returns exactly the
// match set of kRadiusFilter at rho sigma (ids, time codes, bit-equal
// distances, positions, scan counts) on every kernel, the record at
// (rho sigma)^2 included and the one a unit past it excluded.
TEST(CopyRadiusTest, IsotropicNormalizedFilterEqualsRadiusFilterOnEveryKernel) {
  Rng rng(21);
  const fp::Fingerprint query = MidQuery();
  DescriptorBlock block = MakeBoundaryBlock(query, &rng);
  for (int i = 0; i < 300; ++i) {  // near the radius on both sides
    block.Append(DistortFingerprint(query, 30.0, &rng), 1000 + i, i, 0, 0);
  }
  const GaussianDistortionModel model(kSigma);
  const RefineSpec normalized(RefinementMode::kNormalizedRadiusFilter, kRho,
                              &model);
  const RefineSpec byte_space(RefinementMode::kRadiusFilter, kRho * kSigma,
                              nullptr);
  for (ScanKernelKind kind : {ScanKernelKind::kScalar, ScanKernelKind::kSse2,
                              ScanKernelKind::kAvx2}) {
    if (!ScanKernelAvailable(kind)) {
      continue;
    }
    ScopedKernel guard(kind);
    QueryResult got;
    ScanRecords(query, block, 0, block.size(), normalized, &got);
    QueryResult want;
    ScanRecords(query, block, 0, block.size(), byte_space, &want);
    ExpectSameResults(got, want, ScanKernelName(kind));
    QueryResult per_record;
    for (size_t i = 0; i < block.size(); ++i) {
      RefineRecord(query, block, i, normalized, &per_record);
    }
    ExpectSameResults(got, per_record, ScanKernelName(kind));
    size_t at_radius = 0;
    size_t past_radius = 0;
    size_t near = 0;
    for (const Match& m : got.matches) {
      at_radius += m.id == 900 ? 1 : 0;
      past_radius += m.id == 901 ? 1 : 0;
      near += m.id >= 1000 ? 1 : 0;
    }
    EXPECT_EQ(at_radius, 1u) << ScanKernelName(kind);
    EXPECT_EQ(past_radius, 0u) << ScanKernelName(kind);
    EXPECT_GT(near, 0u) << ScanKernelName(kind);
    EXPECT_LT(near, 300u) << ScanKernelName(kind);
  }
}

// An anisotropic model keeps the scalar weighted path: every kernel agrees
// with a per-record sum_j (q_j - x_j)^2 / scale_j^2 <= rho^2.
TEST(CopyRadiusTest, AnisotropicModelAgreesWithTheScalarReference) {
  Rng rng(23);
  const fp::Fingerprint query = MidQuery();
  DescriptorBlock block = MakeBoundaryBlock(query, &rng);
  for (int i = 0; i < 1000; ++i) {
    block.Append(DistortFingerprint(query, 20.0, &rng), 1000 + i, i, 0, 0);
  }
  const PerComponentGaussianModel model = AnisotropicModel();
  const double rho = 20.0;
  const RefineSpec spec(RefinementMode::kNormalizedRadiusFilter, rho, &model);
  ASSERT_EQ(spec.mode, RefinementMode::kNormalizedRadiusFilter);
  std::vector<uint32_t> want;
  for (size_t i = 0; i < block.size(); ++i) {
    double sum = 0;
    for (int j = 0; j < fp::kDims; ++j) {
      const double diff = static_cast<double>(query[j]) -
                          static_cast<double>(block.descriptor(i)[j]);
      const double scale = model.ComponentScale(j);
      sum += diff * diff * (1.0 / (scale * scale));
    }
    if (sum <= rho * rho) {
      want.push_back(block.id(i));
    }
  }
  ASSERT_GT(want.size(), 0u);
  ASSERT_LT(want.size(), block.size());
  for (ScanKernelKind kind : {ScanKernelKind::kScalar, ScanKernelKind::kSse2,
                              ScanKernelKind::kAvx2}) {
    if (!ScanKernelAvailable(kind)) {
      continue;
    }
    ScopedKernel guard(kind);
    QueryResult got;
    ScanRecords(query, block, 0, block.size(), spec, &got);
    std::vector<uint32_t> ids;
    for (const Match& m : got.matches) {
      ids.push_back(m.id);
    }
    EXPECT_EQ(ids, want) << ScanKernelName(kind);
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
