// Tests of record order along the curve (core/sorted_run): OrthantCode is
// pinned against the full Hilbert encode, and one randomized differential
// test puts the same code-sorted records through every store that resolves
// code ranges — the in-memory index, a segment (mapped and resident), the
// memtable's runs and the pseudo-disk's depth-p table — and compares each
// answer against std::lower_bound over the codes. The memtable's run
// lookups against a brute-force oracle, the empty run, and the code-order
// screen of the .s3db readers live here too.

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
#include "fingerprint/extractor.h"
#include "fingerprint/fingerprint.h"
#include "hilbert/hilbert_curve.h"
#include "media/synthetic.h"
#include "store/memtable.h"
#include "store/segment_format.h"
#include "util/bitkey.h"
#include "util/io.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

using Ranges = std::vector<std::pair<uint32_t, uint32_t>>;

// ---- The code -----------------------------------------------------------

/// The top D bits of the order-8 Hilbert key of `f`.
uint32_t TopHilbertBits(const hilbert::HilbertCurve& curve,
                        const fp::Fingerprint& f) {
  uint32_t coords[fp::kDims];
  for (int j = 0; j < fp::kDims; ++j) {
    coords[j] = f[j];
  }
  return static_cast<uint32_t>(
      (curve.Encode(coords) >> (curve.key_bits() - kCodeBits)).low64());
}

TEST(OrthantCodeTest, IsTheTopOfTheHilbertKey) {
  const hilbert::HilbertCurve curve(fp::kDims, 8);
  Rng rng(3);
  for (int trial = 0; trial < 20000; ++trial) {
    fp::Fingerprint f = UniformRandomFingerprint(&rng);
    if (trial % 4 == 1) {
      // Bytes next to the split plane and on the grid edges.
      for (uint8_t& b : f) {
        const int64_t r = rng.UniformInt(0, 3);
        b = r == 0 ? 127 : r == 1 ? 128 : r == 2 ? 0 : 255;
      }
    }
    ASSERT_EQ(OrthantCode(f), TopHilbertBits(curve, f)) << "trial " << trial;
  }
  size_t extracted = 0;
  const fp::FingerprintExtractor extractor;
  for (uint64_t seed : {5, 6}) {
    media::SyntheticVideoConfig config;
    config.width = 96;
    config.height = 80;
    config.num_frames = 120;
    config.seed = seed;
    for (const fp::LocalFingerprint& lf :
         extractor.Extract(media::GenerateSyntheticVideo(config))) {
      ASSERT_EQ(OrthantCode(lf.descriptor),
                TopHilbertBits(curve, lf.descriptor));
      ++extracted;
    }
  }
  EXPECT_GT(extracted, 100u);
}

// ---- Oracle -------------------------------------------------------------

/// Membership of a code in a selection's merged, sorted, disjoint ranges
/// (binary search on the range starts).
bool CodeInSelection(uint32_t code, const Ranges& ranges) {
  const auto it = std::upper_bound(
      ranges.begin(), ranges.end(), code,
      [](uint32_t c, const std::pair<uint32_t, uint32_t>& range) {
        return c < range.first;
      });
  return it != ranges.begin() && code < (it - 1)->second;
}

uint32_t RandomCode(Rng* rng) {
  return static_cast<uint32_t>(rng->UniformInt(0, kCodeEnd - 1));
}

/// Sorted, disjoint random ranges over `cuts`; the last one runs to the
/// end of the code space when `to_end`.
Ranges RandomRanges(std::vector<uint32_t> cuts, bool to_end) {
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  Ranges ranges;
  size_t i = 0;
  for (; i + 1 < cuts.size(); i += 2) {
    ranges.emplace_back(cuts[i], cuts[i + 1]);
  }
  if (to_end && i < cuts.size()) {
    ranges.emplace_back(cuts[i], kCodeEnd);
  }
  return ranges;
}

// The selection oracle agrees with a brute-force scan over randomized
// range sets, including one that runs to the end of the code space.
TEST(CodeInSelectionTest, AgreesWithBruteForceOverRandomRangeSets) {
  Rng rng(14);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint32_t> cuts;
    const int num_cuts = static_cast<int>(rng.UniformInt(2, 24));
    for (int i = 0; i < num_cuts; ++i) {
      cuts.push_back(RandomCode(&rng));
    }
    const Ranges ranges = RandomRanges(cuts, trial % 3 == 0);
    std::vector<uint32_t> probes = {0, kCodeEnd - 1};
    for (const auto& [begin, end] : ranges) {
      probes.insert(probes.end(), {begin, end, begin + 1, end - 1});
    }
    for (int p = 0; p < 64; ++p) {
      probes.push_back(RandomCode(&rng));
    }
    for (const uint32_t code : probes) {
      bool brute_force = false;
      for (const auto& [begin, end] : ranges) {
        brute_force |= begin <= code && code < end;
      }
      EXPECT_EQ(CodeInSelection(code, ranges), brute_force)
          << "trial " << trial << " code " << code;
    }
  }
}

// ---- The differential resolver test -------------------------------------

/// A clustered database (cluster centers with Gaussian spread, as real
/// fingerprint populations are) in which every fifth record repeats an
/// earlier fingerprint exactly, so the code column holds long ties.
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
uint32_t CodeAtDepth(uint32_t prefix, int depth, bool aligned, Rng* rng) {
  const uint32_t low_mask = (uint32_t{1} << (kCodeBits - depth)) - 1;
  return (prefix & ~low_mask) | (aligned ? 0 : RandomCode(rng) & low_mask);
}

/// The range bounds every store is probed with, over a run whose codes
/// are `codes`: bounds at depths 1..D, aligned or not, drawn from stored
/// codes (occupied buckets) and at random (mostly empty ones), each also
/// with the end of the code space as its end; the stored codes themselves
/// and one past them (ties); and both ends of the code space.
Ranges ProbeBounds(const std::vector<uint32_t>& codes, uint64_t seed) {
  Rng rng(seed);
  const auto record_code = [&] {
    return codes.empty() ? RandomCode(&rng)
                         : codes[static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(codes.size()) - 1))];
  };
  Ranges bounds;
  for (int depth = 1; depth <= kCodeBits; ++depth) {
    for (const bool aligned : {true, false}) {
      for (int trial = 0; trial < 12; ++trial) {
        const uint32_t begin = CodeAtDepth(
            trial % 2 == 0 ? record_code() : RandomCode(&rng), depth, aligned,
            &rng);
        const uint32_t end = CodeAtDepth(
            trial % 3 == 0 ? RandomCode(&rng) : record_code(), depth, aligned,
            &rng);
        bounds.emplace_back(begin, end);
        bounds.emplace_back(begin, kCodeEnd);
      }
    }
  }
  for (size_t i = 0; i < codes.size(); i += 1 + codes.size() / 64) {
    bounds.emplace_back(codes[i], codes[i] + 1);
    bounds.emplace_back(codes[i] + 1, codes[i]);
  }
  bounds.insert(bounds.end(), {{0, 0},
                               {0, kCodeEnd},
                               {1, kCodeEnd / 2},
                               {kCodeEnd - 1, kCodeEnd},
                               {kCodeEnd, kCodeEnd}});
  return bounds;
}

size_t LowerBound(const uint32_t* codes, size_t n, uint32_t code) {
  return static_cast<size_t>(std::lower_bound(codes, codes + n, code) -
                             codes);
}

/// Resolve of `run` agrees with std::lower_bound over the run's own codes
/// on every bound.
void ExpectResolvesLikeLowerBound(const SortedRun& run, const Ranges& bounds,
                                  const std::string& where) {
  const uint32_t* codes = run.codes();
  const size_t n = run.size();
  for (const auto& [begin, end] : bounds) {
    const auto [first, last] = run.Resolve(begin, end);
    ASSERT_EQ(first, LowerBound(codes, n, begin))
        << where << " begin " << begin;
    ASSERT_EQ(last, LowerBound(codes, n, end)) << where << " end " << end;
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
    const std::vector<uint32_t> codes = db.codes();
    const Ranges bounds = ProbeBounds(codes, 1234 + n);

    // The pseudo-disk's table: at each query depth p it answers the
    // depth-p aligned range bounds with one read.
    for (int depth = 1; depth <= kCodeBits; ++depth) {
      PrefixTable table(depth);
      for (const uint32_t code : codes) {
        ASSERT_TRUE(table.Append(code));
      }
      table.Finish();
      ASSERT_EQ(table.size(), n);
      Rng rng(depth);
      for (const auto& [begin, end] : bounds) {
        const uint32_t aligned =
            CodeAtDepth(begin, depth, /*aligned=*/true, &rng);
        ASSERT_EQ(table.offset(table.Prefix(aligned)),
                  LowerBound(codes.data(), n, aligned))
            << where << " pseudo-disk depth " << depth;
      }
      ASSERT_EQ(table.offset(table.Prefix(kCodeEnd)), n);
    }

    // A segment, mapped and resident.
    const std::string path = dir + "/run-" + std::to_string(n) + ".s3seg";
    ASSERT_TRUE(store::WriteSegmentFile(path, 1, db.block(), codes,
                                        {.sync = false})
                    .ok());
    for (const bool use_mmap : {true, false}) {
      auto segment = store::SegmentReader::Open(path, {use_mmap});
      ASSERT_TRUE(segment.ok()) << segment.status().ToString();
      ASSERT_EQ((*segment)->mapped(), use_mmap);
      const SortedRun run = (*segment)->run();
      ASSERT_EQ(run.size(), n);
      ASSERT_TRUE(std::equal(codes.begin(), codes.end(), run.codes()));
      ExpectResolvesLikeLowerBound(
          run, bounds, where + (use_mmap ? " mapped" : " resident"));
    }
    std::remove(path.c_str());

    // The memtable's runs, fed the records in a shuffled order: at 20,000
    // records the long runs carry tables and the short ones do not.
    store::Memtable memtable;
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
      memtable.Append(r.descriptor, r.id, r.time_code, r.x, r.y, codes[i]);
    }
    for (size_t r = 0; r < memtable.num_runs(); ++r) {
      const SortedRun run = memtable.run(r);
      if (run.size() < store::Memtable::kMinIndexedRun) {
        ASSERT_EQ(run.table(), nullptr) << where << " run " << r;
      } else {
        ASSERT_NE(run.table(), nullptr) << where << " run " << r;
        ASSERT_EQ(run.table()->depth(), PrefixTable::RunDepth(run.size()));
      }
      ExpectResolvesLikeLowerBound(run, bounds,
                                   where + " memtable run " +
                                       std::to_string(r));
    }

    // The in-memory index, last: it takes the database.
    const S3Index index(std::move(db));
    // t = clamp(ceil(log2 N), 1, D).
    const int expected_depth = n <= 2 ? 1 : n == 1000 ? 10 : 15;
    EXPECT_EQ(index.run().table()->depth(), expected_depth) << where;
    ExpectResolvesLikeLowerBound(index.run(), bounds, where + " s3");
  }
  std::filesystem::remove_all(dir);
}

TEST(SortedRunTest, EmptyRunResolvesEveryRangeToNothing) {
  const PrefixTable table;
  for (const PrefixTable* t : {&table, static_cast<const PrefixTable*>(
                                           nullptr)}) {
    const SortedRun run(DescriptorView{}, nullptr, t);
    EXPECT_TRUE(run.empty());
    EXPECT_EQ(run.Resolve(5, 9), (std::pair<size_t, size_t>(0, 0)));
    EXPECT_EQ(run.Resolve(0, kCodeEnd), (std::pair<size_t, size_t>(0, 0)));
    EXPECT_EQ(run.Resolve(kCodeEnd, kCodeEnd),
              (std::pair<size_t, size_t>(0, 0)));
  }
}

TEST(SortedRunTest, PrefixTableRejectsACodeBelowItsPredecessor) {
  PrefixTable table(/*depth=*/4);  // buckets of 2^16 codes
  ASSERT_TRUE(table.Append(0x12000));
  ASSERT_TRUE(table.Append(0x12000));  // equal codes are in order
  EXPECT_FALSE(table.Append(0x11fff));
  ASSERT_TRUE(table.Append(0x34000));
  EXPECT_FALSE(table.Append(kCodeEnd)) << "outside the code space";
  table.Finish();
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.offset(0), 0u);
  EXPECT_EQ(table.offset(1), 0u);
  EXPECT_EQ(table.offset(2), 2u);
  EXPECT_EQ(table.offset(3), 2u);
  EXPECT_EQ(table.offset(4), 3u);
  EXPECT_EQ(table.offset(16), 3u);
}

// ---- Memtable runs against the oracle -----------------------------------

/// Appends record `a` (its arrival index) to `memtable`, its id the
/// arrival index.
void AppendArrival(store::Memtable* memtable, uint32_t a, uint32_t code) {
  fp::Fingerprint descriptor;
  for (int j = 0; j < fp::kDims; ++j) {
    descriptor[j] = static_cast<uint8_t>(a * 7 + j);
  }
  memtable->Append(descriptor, a, 3 * a + 1, static_cast<float>(a) + 0.5f,
                   static_cast<float>(a) * 2, code);
}

/// Resolve of every run for [begin, end) returns exactly the records whose
/// codes lie in it.
void ExpectLookupMatchesOracle(const store::Memtable& memtable,
                               const std::vector<uint32_t>& codes,
                               uint32_t begin, uint32_t end,
                               const std::string& where) {
  for (size_t r = 0; r < memtable.num_runs(); ++r) {
    const SortedRun run = memtable.run(r);
    const auto [first, last] = run.Resolve(begin, end);
    ASSERT_LE(first, last) << where;
    ASSERT_LE(last, run.size()) << where;
    for (size_t i = 0; i < run.size(); ++i) {
      const uint32_t code = codes[run.view().id(i)];
      EXPECT_EQ(first <= i && i < last, begin <= code && code < end)
          << where << " run " << r << " record " << i;
    }
  }
}

// Every binary-counter state from 0 to 2^7 + 1 records, then the states
// around the first indexed runs: each run answers random ranges (half of
// them running to the end of the code space) and its own boundary codes
// exactly like the oracle.
TEST(MemtableRunTest, BinaryCounterStatesMatchOracle) {
  const std::set<size_t> indexed_states = {1023, 1024, 1025, 1536,
                                           2047, 2048, 2049, 3072};
  Rng rng(21);
  store::Memtable memtable;
  std::vector<uint32_t> codes;
  for (size_t n = 0; n <= 3072; ++n) {
    if (n <= 129 || indexed_states.count(n) > 0) {
      const std::string where = "n=" + std::to_string(n);
      for (int t = 0; t < 4; ++t) {
        const Ranges ranges = RandomRanges(
            {RandomCode(&rng), RandomCode(&rng), RandomCode(&rng)},
            /*to_end=*/true);
        for (const auto& [begin, end] : ranges) {
          ExpectLookupMatchesOracle(memtable, codes, begin, end, where);
        }
      }
      if (!codes.empty()) {
        // Ranges starting or ending exactly on a stored code, and the
        // whole code space.
        const uint32_t c = codes[rng.UniformInt(0, codes.size() - 1)];
        ExpectLookupMatchesOracle(memtable, codes, c, kCodeEnd, where);
        ExpectLookupMatchesOracle(memtable, codes, 0, c, where);
        ExpectLookupMatchesOracle(memtable, codes, c, c + 1, where);
        ExpectLookupMatchesOracle(memtable, codes, 0, kCodeEnd, where);
      }
    }
    // Every fourth code repeats an earlier one: runs hold equal codes.
    codes.push_back(n % 4 == 3 ? codes[rng.UniformInt(0, n - 1)]
                               : RandomCode(&rng));
    AppendArrival(&memtable, static_cast<uint32_t>(n), codes.back());
  }
}

// A selection over all runs finds exactly the buffered records whose codes
// the selection oracle accepts, each once.
TEST(MemtableRunTest, SelectionOverRunsMatchesCodeInSelection) {
  Rng rng(22);
  for (int trial = 0; trial < 30; ++trial) {
    store::Memtable memtable;
    std::vector<uint32_t> codes;
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 3000));
    for (size_t a = 0; a < n; ++a) {
      codes.push_back(a % 4 == 3 ? codes[rng.UniformInt(0, a - 1)]
                                 : RandomCode(&rng));
      AppendArrival(&memtable, static_cast<uint32_t>(a), codes.back());
    }
    std::vector<uint32_t> cuts;
    for (int c = 0; c < 16; ++c) {
      cuts.push_back(n > 0 && c % 2 == 0 ? codes[rng.UniformInt(0, n - 1)]
                                         : RandomCode(&rng));
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
      if (CodeInSelection(codes[a], ranges)) {
        expected.insert(static_cast<uint32_t>(a));
      }
    }
    EXPECT_EQ(found, expected) << "trial " << trial << " n=" << n;
  }
}

// ---- Code order of the .s3db readers ------------------------------------

// Two adjacent records with distinct codes swapped and the file CRC
// resealed: the payload checks out, so only the code-order screen can
// catch it — in the loader and in the pseudo-disk's streaming table pass
// alike.
TEST(SortedRunTest, SwappedRecordsInAResealedDatabaseAreCorruption) {
  const std::string path = testing::TempDir() + "/swapped_" +
                           std::to_string(::getpid()) + ".s3db";
  const FingerprintDatabase db = BuildDatabase(500, 31);
  ASSERT_TRUE(db.SaveToFile(path).ok());
  size_t i = 100;
  while (db.codes()[i] == db.codes()[i + 1]) {
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
