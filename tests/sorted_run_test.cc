// Tests of record order along the curve (core/sorted_run): one randomized
// differential test puts the same key-sorted records through every store
// that resolves curve sections — the in-memory index, a segment (mapped and
// resident), the memtable's runs and the pseudo-disk's depth-p table — and
// compares each answer against std::lower_bound over the keys. The section
// oracle and the memtable's run lookups against it, the empty run, and the
// key-order screen of the .s3db readers live here too.

#include "core/sorted_run.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/index.h"
#include "core/pseudo_disk.h"
#include "core/synthetic_db.h"
#include "fingerprint/fingerprint.h"
#include "hilbert/hilbert_curve.h"
#include "store/memtable.h"
#include "store/segment_format.h"
#include "util/bitkey.h"
#include "util/io.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

using Ranges = std::vector<std::pair<BitKey, BitKey>>;

// ---- Oracle -----------------------------------------------------------

/// Membership of a curve key in the half-open section [begin, end), where
/// a numerically zero `end` denotes the final section wrapping to the top
/// of the key space (the convention of SortedRun::Resolve).
bool KeyInSection(const BitKey& key, const BitKey& begin, const BitKey& end) {
  return begin <= key && (end.is_zero() || key < end);
}

/// Membership of a curve key in a selection's merged, sorted, disjoint
/// ranges (binary search on the range starts).
bool KeyInSelection(const BitKey& key, const Ranges& ranges) {
  const auto it = std::upper_bound(
      ranges.begin(), ranges.end(), key,
      [](const BitKey& k, const std::pair<BitKey, BitKey>& range) {
        return k < range.first;
      });
  if (it == ranges.begin()) {
    return false;
  }
  const auto& [begin, end] = *(it - 1);
  return KeyInSection(key, begin, end);
}

BitKey TopKey() {
  BitKey top;
  top.set_word(3, ~uint64_t{0});
  return top;
}

BitKey RandomKey(const hilbert::HilbertCurve& curve, Rng* rng) {
  uint32_t coords[fp::kDims];
  for (auto& c : coords) {
    c = static_cast<uint32_t>(rng->UniformInt(0, 255));
  }
  return curve.Encode(coords);
}

/// Sorted, disjoint random sections over `cuts`; the last one wraps to
/// the top of the key space when `wrap_last`.
Ranges RandomRanges(std::vector<BitKey> cuts, bool wrap_last) {
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  Ranges ranges;
  size_t i = 0;
  for (; i + 1 < cuts.size(); i += 2) {
    ranges.emplace_back(cuts[i], cuts[i + 1]);
  }
  if (wrap_last && i < cuts.size()) {
    ranges.emplace_back(cuts[i], BitKey::Zero());
  }
  return ranges;
}

TEST(KeyInSectionTest, ZeroEndWrapsToTopOfKeySpace) {
  const BitKey begin(1000);
  const BitKey zero = BitKey::Zero();
  // [begin, 0) means "from begin to the top of the key space".
  EXPECT_TRUE(KeyInSection(BitKey(1000), begin, zero));
  EXPECT_TRUE(KeyInSection(BitKey(1001), begin, zero));
  EXPECT_TRUE(KeyInSection(TopKey(), begin, zero));
  EXPECT_FALSE(KeyInSection(BitKey(999), begin, zero));
  // With a nonzero end the section is the ordinary half-open interval.
  EXPECT_TRUE(KeyInSection(BitKey(1000), begin, BitKey(1002)));
  EXPECT_FALSE(KeyInSection(BitKey(1002), begin, BitKey(1002)));
}

// The selection oracle (binary search over merged sorted disjoint
// sections) agrees with the brute-force scan of KeyInSection over
// randomized range sets, including a zero-end final section.
TEST(KeyInSelectionTest, AgreesWithBruteForceOverRandomRangeSets) {
  const hilbert::HilbertCurve curve(fp::kDims, 8);
  Rng rng(14);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<BitKey> cuts;
    const int num_cuts = static_cast<int>(rng.UniformInt(2, 24));
    for (int i = 0; i < num_cuts; ++i) {
      cuts.push_back(RandomKey(curve, &rng));
    }
    const Ranges ranges = RandomRanges(cuts, trial % 3 == 0);
    if (ranges.empty()) {
      continue;
    }
    const auto brute_force = [&ranges](const BitKey& key) {
      for (const auto& [begin, end] : ranges) {
        if (KeyInSection(key, begin, end)) {
          return true;
        }
      }
      return false;
    };

    std::vector<BitKey> probes;
    for (const auto& [begin, end] : ranges) {
      probes.push_back(begin);  // inclusive boundary
      probes.push_back(end);    // exclusive boundary
      probes.push_back(begin + BitKey(1));
      if (!end.is_zero()) {
        probes.push_back(end - BitKey(1));  // last key inside
      }
    }
    probes.push_back(BitKey::Zero());
    probes.push_back(TopKey());
    for (int p = 0; p < 64; ++p) {
      probes.push_back(RandomKey(curve, &rng));
    }
    for (const BitKey& key : probes) {
      EXPECT_EQ(KeyInSelection(key, ranges), brute_force(key))
          << "trial " << trial << " key " << key.low64();
    }
  }
}

// ---- The differential resolver test -------------------------------------

/// A clustered database (cluster centers with Gaussian spread, as real
/// fingerprint populations are) in which every fifth record repeats an
/// earlier fingerprint exactly, so the key column holds duplicates.
FingerprintDatabase BuildDatabase(size_t count, uint64_t seed) {
  Rng rng(seed);
  DatabaseBuilder builder;
  std::vector<fp::Fingerprint> centers;
  for (int c = 0; c < 50; ++c) {
    centers.push_back(UniformRandomFingerprint(&rng));
  }
  std::vector<fp::Fingerprint> added;
  for (size_t i = 0; i < count; ++i) {
    const fp::Fingerprint point =
        i % 5 == 4 ? added[static_cast<size_t>(rng.UniformInt(
                         0, static_cast<int64_t>(added.size()) - 1))]
                   : DistortFingerprint(
                         centers[static_cast<size_t>(rng.UniformInt(0, 49))],
                         25.0, &rng);
    added.push_back(point);
    builder.Add(point, static_cast<uint32_t>(i), static_cast<uint32_t>(i));
  }
  return builder.Build();
}

/// `prefix` cut to its top `depth` bits; the bits below are zero when
/// `aligned`, random otherwise.
BitKey KeyAtDepth(const BitKey& prefix, int key_bits, int depth, bool aligned,
                  Rng* rng) {
  const int low = key_bits - depth;
  BitKey key = prefix & (BitKey::LowMask(key_bits) ^ BitKey::LowMask(low));
  if (!aligned) {
    for (int b = 0; b < low; ++b) {
      key.set_bit(b, rng->UniformInt(0, 1) == 1);
    }
  }
  return key;
}

/// The section bounds every store is probed with, over a run whose keys
/// are `keys`: bounds at depths 1..D and deeper (kNN descends to 48),
/// aligned or not, drawn from stored keys (occupied buckets) and at random
/// (mostly empty ones), each also with a wrapped end; the stored keys
/// themselves and one past them (duplicates and ties); and both ends of
/// the key space, including the one-past-the-top end of the last block.
Ranges ProbeBounds(const std::vector<BitKey>& keys, int key_bits,
                   uint64_t seed) {
  Rng rng(seed);
  const auto random_prefix = [&] {
    BitKey key;
    for (int b = 0; b < key_bits; ++b) {
      key.set_bit(b, rng.UniformInt(0, 1) == 1);
    }
    return key;
  };
  const auto record_prefix = [&] {
    return keys.empty() ? random_prefix()
                        : keys[static_cast<size_t>(rng.UniformInt(
                              0, static_cast<int64_t>(keys.size()) - 1))];
  };
  Ranges bounds;
  std::vector<int> depths;
  for (int depth = 1; depth <= fp::kDims; ++depth) {
    depths.push_back(depth);
  }
  for (const int depth : {21, 24, 32, 48, 100, key_bits}) {
    depths.push_back(depth);
  }
  for (const int depth : depths) {
    for (const bool aligned : {true, false}) {
      for (int trial = 0; trial < 12; ++trial) {
        const BitKey begin = KeyAtDepth(
            trial % 2 == 0 ? record_prefix() : random_prefix(), key_bits,
            depth, aligned, &rng);
        const BitKey end = KeyAtDepth(
            trial % 3 == 0 ? random_prefix() : record_prefix(), key_bits,
            depth, aligned, &rng);
        bounds.emplace_back(begin, end);
        bounds.emplace_back(begin, BitKey::Zero());  // the wrapped section
      }
    }
  }
  for (size_t i = 0; i < keys.size(); i += 1 + keys.size() / 64) {
    bounds.emplace_back(keys[i], keys[i] + BitKey::OneBit(0));
    bounds.emplace_back(keys[i] + BitKey::OneBit(0), keys[i]);
  }
  bounds.emplace_back(BitKey::Zero(), BitKey::Zero());
  bounds.emplace_back(BitKey::Zero(), BitKey::LowMask(key_bits));
  bounds.emplace_back(BitKey::OneBit(0), BitKey::OneBit(key_bits - 1));
  bounds.emplace_back(BitKey::LowMask(key_bits), BitKey::OneBit(key_bits));
  bounds.emplace_back(BitKey::OneBit(key_bits), BitKey::Zero());
  return bounds;
}

size_t LowerBound(const BitKey* keys, size_t n, const BitKey& key) {
  return static_cast<size_t>(std::lower_bound(keys, keys + n, key) - keys);
}

/// Resolve of `run` agrees with std::lower_bound over the run's own keys
/// on every bound.
void ExpectResolvesLikeLowerBound(const SortedRun& run, const Ranges& bounds,
                                  const std::string& where) {
  const BitKey* keys = run.keys();
  const size_t n = run.size();
  for (const auto& [begin, end] : bounds) {
    const auto [first, last] = run.Resolve(begin, end);
    ASSERT_EQ(first, LowerBound(keys, n, begin))
        << where << " begin " << begin.ToHex();
    ASSERT_EQ(last, end.is_zero() ? n : LowerBound(keys, n, end))
        << where << " end " << end.ToHex();
  }
}

TEST(SortedRunTest, EveryStoreResolvesLikeLowerBound) {
  const std::string dir =
      testing::TempDir() + "/sorted_run_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{1000},
                         size_t{20000}}) {
    const std::string where = "n=" + std::to_string(n);
    FingerprintDatabase db = BuildDatabase(n, 77 + n);
    const hilbert::HilbertCurve curve = db.curve();
    const int key_bits = curve.key_bits();
    const std::vector<BitKey> keys = db.keys();
    const Ranges bounds = ProbeBounds(keys, key_bits, 1234 + n);

    // The pseudo-disk's table: at each query depth p it answers the
    // depth-p aligned section bounds with one read.
    for (int depth = 1; depth <= fp::kDims; ++depth) {
      PrefixTable table(key_bits, depth);
      for (const BitKey& key : keys) {
        ASSERT_TRUE(table.Append(key));
      }
      table.Finish();
      ASSERT_EQ(table.size(), n);
      Rng rng(depth);
      for (const auto& [begin, end] : bounds) {
        const BitKey aligned =
            KeyAtDepth(begin, key_bits, depth, /*aligned=*/true, &rng);
        ASSERT_EQ(table.offset(table.Prefix(aligned)),
                  LowerBound(keys.data(), n, aligned))
            << where << " pseudo-disk depth " << depth;
      }
      ASSERT_EQ(table.offset(table.Prefix(BitKey::OneBit(key_bits))), n);
    }

    // A segment, mapped and resident.
    const std::string path = dir + "/run-" + std::to_string(n) + ".s3seg";
    ASSERT_TRUE(store::WriteSegmentFile(path, 1, db.order(), db.block(), keys,
                                        {.sync = false})
                    .ok());
    for (const bool use_mmap : {true, false}) {
      auto segment = store::SegmentReader::Open(path, {use_mmap});
      ASSERT_TRUE(segment.ok()) << segment.status().ToString();
      ASSERT_EQ((*segment)->mapped(), use_mmap);
      const SortedRun run = (*segment)->run();
      ASSERT_EQ(run.size(), n);
      ASSERT_TRUE(std::equal(keys.begin(), keys.end(), run.keys()));
      ExpectResolvesLikeLowerBound(
          run, bounds, where + (use_mmap ? " mapped" : " resident"));
    }
    std::remove(path.c_str());

    // The memtable's runs, fed the records in a shuffled order.
    store::Memtable memtable(curve);
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) {
      order[i] = i;
    }
    Rng shuffle(n);
    for (size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<size_t>(shuffle.UniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
    for (const size_t i : order) {
      const FingerprintRecord r = db.record(i);
      memtable.Append(r.descriptor, r.id, r.time_code, r.x, r.y, keys[i]);
    }
    for (size_t r = 0; r < memtable.num_runs(); ++r) {
      const SortedRun run = memtable.run(r);
      ASSERT_EQ(run.table().depth(), PrefixTable::RunDepth(run.size(), curve));
      ExpectResolvesLikeLowerBound(run, bounds,
                                   where + " memtable run " +
                                       std::to_string(r));
    }

    // The in-memory index, last: it takes the database.
    const S3Index index(std::move(db));
    // t = clamp(ceil(log2 N), 1, D).
    const int expected_depth = n <= 2 ? 1 : n == 1000 ? 10 : 15;
    EXPECT_EQ(index.run().table().depth(), expected_depth) << where;
    ExpectResolvesLikeLowerBound(index.run(), bounds, where + " s3");
  }
  std::filesystem::remove_all(dir);
}

TEST(SortedRunTest, EmptyRunResolvesEveryRangeToNothing) {
  const PrefixTable table;
  const SortedRun run(DescriptorView{}, nullptr, table);
  EXPECT_TRUE(run.empty());
  EXPECT_EQ(run.Resolve(BitKey(5), BitKey(9)),
            (std::pair<size_t, size_t>(0, 0)));
  EXPECT_EQ(run.Resolve(BitKey::Zero(), BitKey::Zero()),
            (std::pair<size_t, size_t>(0, 0)));
  EXPECT_EQ(run.Resolve(TopKey(), BitKey::Zero()),
            (std::pair<size_t, size_t>(0, 0)));
}

TEST(SortedRunTest, PrefixTableRejectsAKeyBelowItsPredecessor) {
  PrefixTable table(/*key_bits=*/16, /*depth=*/4);
  ASSERT_TRUE(table.Append(BitKey(0x1200)));
  ASSERT_TRUE(table.Append(BitKey(0x1200)));  // equal keys are in order
  EXPECT_FALSE(table.Append(BitKey(0x11ff)));
  ASSERT_TRUE(table.Append(BitKey(0x3400)));
  table.Finish();
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.offset(0), 0u);
  EXPECT_EQ(table.offset(1), 0u);
  EXPECT_EQ(table.offset(2), 2u);
  EXPECT_EQ(table.offset(3), 2u);
  EXPECT_EQ(table.offset(4), 3u);
  EXPECT_EQ(table.offset(16), 3u);
}

// ---- Memtable runs against the section oracle -----------------------------

/// Appends record `a` (its arrival index) to `memtable`, its id the
/// arrival index.
void AppendArrival(store::Memtable* memtable, uint32_t a, const BitKey& key) {
  fp::Fingerprint descriptor;
  for (int j = 0; j < fp::kDims; ++j) {
    descriptor[j] = static_cast<uint8_t>(a * 7 + j);
  }
  memtable->Append(descriptor, a, 3 * a + 1, static_cast<float>(a) + 0.5f,
                   static_cast<float>(a) * 2, key);
}

/// Resolve of every run for [begin, end) returns exactly the records the
/// brute-force oracle puts in the section.
void ExpectLookupMatchesOracle(const store::Memtable& memtable,
                               const std::vector<BitKey>& keys,
                               const BitKey& begin, const BitKey& end,
                               const std::string& where) {
  for (size_t r = 0; r < memtable.num_runs(); ++r) {
    const SortedRun run = memtable.run(r);
    const auto [first, last] = run.Resolve(begin, end);
    ASSERT_LE(first, last) << where;
    ASSERT_LE(last, run.size()) << where;
    for (size_t i = 0; i < run.size(); ++i) {
      const bool inside = first <= i && i < last;
      EXPECT_EQ(inside, KeyInSection(keys[run.view().id(i)], begin, end))
          << where << " run " << r << " record " << i;
    }
  }
}

// Every binary-counter state from 0 to 2^k + 1 records: each run answers
// random sections (half of them wrapping to the top of the key space) and
// its own boundary keys exactly like the oracle.
TEST(MemtableRunTest, EveryBinaryCounterStateMatchesOracle) {
  constexpr size_t kMaxRecords = (size_t{1} << 7) + 1;
  const hilbert::HilbertCurve curve(fp::kDims, 8);
  Rng rng(21);
  store::Memtable memtable(curve);
  std::vector<BitKey> keys;
  for (size_t n = 0; n <= kMaxRecords; ++n) {
    const std::string where = "n=" + std::to_string(n);
    for (int t = 0; t < 4; ++t) {
      const Ranges ranges =
          RandomRanges({RandomKey(curve, &rng), RandomKey(curve, &rng),
                        RandomKey(curve, &rng)},
                       /*wrap_last=*/true);
      for (const auto& [begin, end] : ranges) {
        ExpectLookupMatchesOracle(memtable, keys, begin, end, where);
      }
    }
    if (!keys.empty()) {
      // Sections starting or ending exactly on a stored key, and the
      // whole key space as one wrapped section.
      const BitKey& k = keys[rng.UniformInt(0, keys.size() - 1)];
      ExpectLookupMatchesOracle(memtable, keys, k, BitKey::Zero(), where);
      ExpectLookupMatchesOracle(memtable, keys, BitKey::Zero(), k, where);
      ExpectLookupMatchesOracle(memtable, keys, k, k + BitKey(1), where);
      ExpectLookupMatchesOracle(memtable, keys, BitKey::Zero(),
                                BitKey::Zero(), where);
    }
    keys.push_back(RandomKey(curve, &rng));
    AppendArrival(&memtable, static_cast<uint32_t>(n), keys.back());
  }
}

// A selection over all runs finds exactly the buffered records whose keys
// the selection oracle accepts, each once.
TEST(MemtableRunTest, SelectionOverRunsMatchesKeyInSelection) {
  const hilbert::HilbertCurve curve(fp::kDims, 8);
  Rng rng(22);
  for (int trial = 0; trial < 30; ++trial) {
    store::Memtable memtable(curve);
    std::vector<BitKey> keys;
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 700));
    for (size_t a = 0; a < n; ++a) {
      // Every fourth key repeats an earlier one: runs hold equal keys.
      keys.push_back(a % 4 == 3 ? keys[rng.UniformInt(0, a - 1)]
                                : RandomKey(curve, &rng));
      AppendArrival(&memtable, static_cast<uint32_t>(a), keys.back());
    }
    std::vector<BitKey> cuts;
    for (int c = 0; c < 16; ++c) {
      cuts.push_back(n > 0 && c % 2 == 0 ? keys[rng.UniformInt(0, n - 1)]
                                         : RandomKey(curve, &rng));
    }
    const Ranges ranges = RandomRanges(cuts, trial % 2 == 0);

    std::multiset<uint32_t> found;
    for (const auto& [begin, end] : ranges) {
      for (size_t r = 0; r < memtable.num_runs(); ++r) {
        const SortedRun run = memtable.run(r);
        const auto [first, last] = run.Resolve(begin, end);
        for (size_t i = first; i < last; ++i) {
          found.insert(run.view().id(i));
        }
      }
    }
    std::multiset<uint32_t> expected;
    for (size_t a = 0; a < n; ++a) {
      if (KeyInSelection(keys[a], ranges)) {
        expected.insert(static_cast<uint32_t>(a));
      }
    }
    EXPECT_EQ(found, expected) << "trial " << trial << " n=" << n;
  }
}

// ---- Key order of the .s3db readers ---------------------------------------

// Two adjacent records with distinct keys swapped and the file CRC
// resealed: the payload checks out, so only the key-order screen can catch
// it — in the loader and in the pseudo-disk's streaming table pass alike.
TEST(SortedRunTest, SwappedRecordsInAResealedDatabaseAreCorruption) {
  const std::string path = testing::TempDir() + "/swapped_" +
                           std::to_string(::getpid()) + ".s3db";
  const FingerprintDatabase db = BuildDatabase(500, 31);
  ASSERT_TRUE(db.SaveToFile(path).ok());
  size_t i = 100;
  while (db.key(i) == db.key(i + 1)) {
    ++i;
  }
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  uint8_t* a = bytes->data() + internal::kHeaderBytes +
               i * internal::kRecordBytes;
  std::swap_ranges(a, a + internal::kRecordBytes, a + internal::kRecordBytes);
  const size_t payload = bytes->size() - 4;
  const uint32_t crc = Crc32(bytes->data(), payload);
  std::copy_n(reinterpret_cast<const uint8_t*>(&crc), 4,
              bytes->data() + payload);
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.WriteBytes(bytes->data(), bytes->size()).ok());
    ASSERT_TRUE(writer.Close().ok());
  }

  const auto loaded = FingerprintDatabase::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
      << loaded.status().ToString();
  const auto searcher = PseudoDiskSearcher::Open(path, PseudoDiskOptions{});
  ASSERT_FALSE(searcher.ok());
  EXPECT_EQ(searcher.status().code(), StatusCode::kCorruption)
      << searcher.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace s3vcd::core
