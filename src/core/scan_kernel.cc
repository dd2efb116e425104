#include "core/scan_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/scan_kernel_internal.h"
#include "util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#include <immintrin.h>
#define S3VCD_X86 1
#endif

namespace s3vcd::core {

namespace {

using internal::SqDistBatchFn;
using internal::SqDistBatchScalar;

// Strip width of the blocked kernel: distances for kScanStrip records are
// computed into a stack buffer before the mode test touches them, keeping
// the distance loop free of branches and Match pushes.
constexpr size_t kScanStrip = 64;

// How many gathers ahead the gather kernels prefetch the next descriptor
// lines: far enough to cover a memory round trip at graph-traversal
// candidate-set sizes (K ~ graph degree), near enough not to thrash.
constexpr size_t kGatherPrefetchAhead = 8;

#ifdef S3VCD_X86

// The query widened to three u16 vectors: components [0,8), [8,16) and
// [16,20) (upper four lanes zero). Shared by the SSE2 and AVX2 kernels.
struct QueryU16 {
  __m128i q0, q1, q2;
};

inline QueryU16 WidenQuery(const uint8_t* query) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(query));
  uint32_t tail_bits;
  std::memcpy(&tail_bits, query + 16, 4);
  const __m128i hi = _mm_cvtsi32_si128(static_cast<int>(tail_bits));
  return {_mm_unpacklo_epi8(lo, zero), _mm_unpackhi_epi8(lo, zero),
          _mm_unpacklo_epi8(hi, zero)};
}

// One record: |d - q| fits i16, madd(diff, diff) sums i16*i16 products in
// exact i32 pairs; the total (max 20 * 255^2) fits i32.
inline uint32_t SqDistOneSse2(const uint8_t* d, const QueryU16& q) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(d));
  uint32_t tail_bits;
  std::memcpy(&tail_bits, d + 16, 4);
  const __m128i hi = _mm_cvtsi32_si128(static_cast<int>(tail_bits));
  const __m128i diff0 = _mm_sub_epi16(_mm_unpacklo_epi8(lo, zero), q.q0);
  const __m128i diff1 = _mm_sub_epi16(_mm_unpackhi_epi8(lo, zero), q.q1);
  const __m128i diff2 = _mm_sub_epi16(_mm_unpacklo_epi8(hi, zero), q.q2);
  __m128i acc = _mm_madd_epi16(diff0, diff0);
  acc = _mm_add_epi32(acc, _mm_madd_epi16(diff1, diff1));
  acc = _mm_add_epi32(acc, _mm_madd_epi16(diff2, diff2));
  acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, _MM_SHUFFLE(1, 0, 3, 2)));
  acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(acc));
}

void SqDistBatchSse2(const uint8_t* desc, size_t n, const uint8_t* query,
                     uint32_t* out) {
  const QueryU16 q = WidenQuery(query);
  for (size_t i = 0; i < n; ++i) {
    out[i] = SqDistOneSse2(desc + i * fp::kDims, q);
  }
}

void SqDistGatherSse2(const uint8_t* desc, const uint32_t* indices, size_t k,
                      const uint8_t* query, uint32_t* out) {
  const QueryU16 q = WidenQuery(query);
  for (size_t i = 0; i < k; ++i) {
    if (i + kGatherPrefetchAhead < k) {
      __builtin_prefetch(
          desc + static_cast<size_t>(indices[i + kGatherPrefetchAhead]) *
                     fp::kDims,
          0, 3);
    }
    out[i] = SqDistOneSse2(
        desc + static_cast<size_t>(indices[i]) * fp::kDims, q);
  }
}

// One record of the AVX2 exact kernel: components [0,16) as one 16-lane
// u16 vector, tail [16,20) in an xmm.
__attribute__((target("avx2"))) inline uint32_t SqDistOneAvx2(
    const uint8_t* d, const __m256i q016, const __m128i qtail) {
  const __m256i v = _mm256_cvtepu8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(d)));
  const __m256i diff = _mm256_sub_epi16(v, q016);
  const __m256i acc = _mm256_madd_epi16(diff, diff);
  uint32_t tail_bits;
  std::memcpy(&tail_bits, d + 16, 4);
  const __m128i t =
      _mm_cvtepu8_epi16(_mm_cvtsi32_si128(static_cast<int>(tail_bits)));
  const __m128i dt = _mm_sub_epi16(t, qtail);
  __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
  sum = _mm_add_epi32(sum, _mm_madd_epi16(dt, dt));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(sum));
}

__attribute__((target("avx2"))) void SqDistBatchAvx2(const uint8_t* desc,
                                                     size_t n,
                                                     const uint8_t* query,
                                                     uint32_t* out) {
  const QueryU16 qn = WidenQuery(query);
  const __m256i q016 = _mm256_set_m128i(qn.q1, qn.q0);
  const __m128i qtail = qn.q2;
  for (size_t i = 0; i < n; ++i) {
    out[i] = SqDistOneAvx2(desc + i * fp::kDims, q016, qtail);
  }
}

__attribute__((target("avx2"))) void SqDistGatherAvx2(
    const uint8_t* desc, const uint32_t* indices, size_t k,
    const uint8_t* query, uint32_t* out) {
  const QueryU16 qn = WidenQuery(query);
  const __m256i q016 = _mm256_set_m128i(qn.q1, qn.q0);
  const __m128i qtail = qn.q2;
  for (size_t i = 0; i < k; ++i) {
    if (i + kGatherPrefetchAhead < k) {
      __builtin_prefetch(
          desc + static_cast<size_t>(indices[i + kGatherPrefetchAhead]) *
                     fp::kDims,
          0, 3);
    }
    out[i] = SqDistOneAvx2(
        desc + static_cast<size_t>(indices[i]) * fp::kDims, q016, qtail);
  }
}

#endif  // S3VCD_X86

SqDistBatchFn KernelFn(ScanKernelKind kind) {
  switch (kind) {
    case ScanKernelKind::kScalar:
      return &SqDistBatchScalar;
#ifdef S3VCD_X86
    case ScanKernelKind::kSse2:
      return &SqDistBatchSse2;
    case ScanKernelKind::kAvx2:
      return &SqDistBatchAvx2;
#else
    case ScanKernelKind::kSse2:
    case ScanKernelKind::kAvx2:
      break;
#endif
  }
  return &SqDistBatchScalar;
}

internal::SqDistGatherFn GatherKernelFn(ScanKernelKind kind) {
  switch (kind) {
    case ScanKernelKind::kScalar:
      return &internal::SqDistGatherScalar;
#ifdef S3VCD_X86
    case ScanKernelKind::kSse2:
      return &SqDistGatherSse2;
    case ScanKernelKind::kAvx2:
      return &SqDistGatherAvx2;
#else
    case ScanKernelKind::kSse2:
    case ScanKernelKind::kAvx2:
      break;
#endif
  }
  return &internal::SqDistGatherScalar;
}

// The measured-fastest kernel this CPU/build can run: AVX2 when present,
// else the x86-64 SSE2 baseline, else the portable loop.
ScanKernelKind DefaultKernel() {
  if (ScanKernelAvailable(ScanKernelKind::kAvx2)) {
    return ScanKernelKind::kAvx2;
  }
  if (ScanKernelAvailable(ScanKernelKind::kSse2)) {
    return ScanKernelKind::kSse2;
  }
  return ScanKernelKind::kScalar;
}

bool KernelFromName(const char* name, ScanKernelKind* kind) {
  for (const ScanKernelKind k :
       {ScanKernelKind::kScalar, ScanKernelKind::kSse2,
        ScanKernelKind::kAvx2}) {
    if (std::strcmp(name, ScanKernelName(k)) == 0) {
      *kind = k;
      return true;
    }
  }
  return false;
}

ScanKernelKind DetectKernel() {
  const char* named = std::getenv("S3VCD_SCAN_KERNEL");
  if (named != nullptr && named[0] != '\0') {
    ScanKernelKind kind;
    if (!KernelFromName(named, &kind)) {
      std::fprintf(stderr,
                   "s3vcd: unknown S3VCD_SCAN_KERNEL '%s' (expected "
                   "scalar|sse2|avx2); using the default kernel\n",
                   named);
    } else if (!ScanKernelAvailable(kind)) {
      std::fprintf(stderr,
                   "s3vcd: S3VCD_SCAN_KERNEL=%s is not available on this "
                   "CPU/build; using the default kernel\n",
                   named);
    } else {
      return kind;
    }
  }
  return DefaultKernel();
}

std::atomic<int>& ActiveKernelSlot() {
  static std::atomic<int> slot(static_cast<int>(DetectKernel()));
  return slot;
}

}  // namespace

GatherScorer::GatherScorer(const uint8_t* query, const DescriptorView& view)
    : descriptors_(view.descriptors), fn_(GatherKernelFn(ActiveScanKernel())) {
  std::memcpy(query_, query, fp::kDims);
}

void GatherScorer::Score(const uint32_t* indices, size_t k,
                         uint32_t* out) const {
  if (k == 0) {
    return;
  }
  fn_(descriptors_, indices, k, query_, out);
}

const char* ScanKernelName(ScanKernelKind kind) {
  switch (kind) {
    case ScanKernelKind::kScalar:
      return "scalar";
    case ScanKernelKind::kSse2:
      return "sse2";
    case ScanKernelKind::kAvx2:
      return "avx2";
  }
  return "unknown";
}

ScanKernelKind ActiveScanKernel() {
  return static_cast<ScanKernelKind>(
      ActiveKernelSlot().load(std::memory_order_relaxed));
}

const char* ActiveScanKernelName() {
  return ScanKernelName(ActiveScanKernel());
}

bool ScanKernelAvailable(ScanKernelKind kind) {
  switch (kind) {
    case ScanKernelKind::kScalar:
      return true;
    case ScanKernelKind::kSse2:
#ifdef S3VCD_X86
      return true;
#else
      return false;
#endif
    case ScanKernelKind::kAvx2:
#ifdef S3VCD_X86
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

ScanKernelKind SetScanKernelForTest(ScanKernelKind kind) {
  S3VCD_CHECK(ScanKernelAvailable(kind));
  return static_cast<ScanKernelKind>(ActiveKernelSlot().exchange(
      static_cast<int>(kind), std::memory_order_relaxed));
}

void ScanRecords(const fp::Fingerprint& query, const DescriptorView& block,
                 size_t first, size_t last, const RefineSpec& spec,
                 QueryResult* result) {
  if (first >= last) {
    return;
  }
  result->stats.records_scanned += last - first;
  if (spec.mode == RefinementMode::kNormalizedRadiusFilter) {
    // Normalized mode stays on the single shared scalar definition so all
    // backends and kernels agree bitwise (see NormalizedSquaredDistance);
    // the weight table already makes it a single pass per record.
    for (size_t i = first; i < last; ++i) {
      const double dist_sq = NormalizedSquaredDistance(
          query.data(), block.descriptor(i), spec.inv_scale_sq.data());
      if (dist_sq > spec.radius_sq) {
        continue;
      }
      result->matches.push_back({block.id(i), block.time_code(i),
                                 static_cast<float>(std::sqrt(dist_sq)),
                                 block.x(i), block.y(i)});
    }
    return;
  }
  // Integer path: blocked strips of distances, then the mode test.
  const SqDistBatchFn batch = KernelFn(ActiveScanKernel());
  uint32_t dist_sq[kScanStrip];
  for (size_t strip = first; strip < last; strip += kScanStrip) {
    const size_t count = std::min(kScanStrip, last - strip);
    batch(block.descriptor(strip), count, query.data(), dist_sq);
    for (size_t k = 0; k < count; ++k) {
      const double d_sq = static_cast<double>(dist_sq[k]);
      if (spec.mode == RefinementMode::kRadiusFilter &&
          d_sq > spec.radius_sq) {
        continue;
      }
      const size_t i = strip + k;
      result->matches.push_back({block.id(i), block.time_code(i),
                                 static_cast<float>(std::sqrt(d_sq)),
                                 block.x(i), block.y(i)});
    }
  }
}

}  // namespace s3vcd::core
