// Tests of the segment store's write buffer (store/memtable): the binary-
// counter run schedule, run lookup against a brute-force key-membership
// oracle (including the zero-end wrapped final section and empty runs),
// and arrival order among equal keys across merges and spills.

#include "store/memtable.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/descriptor_block.h"
#include "core/synthetic_db.h"
#include "fingerprint/fingerprint.h"
#include "hilbert/hilbert_curve.h"
#include "store/segment_searcher.h"
#include "util/bitkey.h"
#include "util/rng.h"

namespace s3vcd::store {
namespace {

using Ranges = std::vector<std::pair<BitKey, BitKey>>;

// ---- Oracle -----------------------------------------------------------

/// Membership of a curve key in the half-open section [begin, end), where
/// a numerically zero `end` denotes the final section wrapping to the top
/// of the key space (the convention of every ResolveRange).
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

// ---- Memtable ---------------------------------------------------------

/// Appends record `a` (its arrival index) to `memtable`: the id is the
/// arrival index and every other column is derived from it, so a test can
/// check that a merge moved all columns of a record together.
void AppendArrival(Memtable* memtable, uint32_t a, const BitKey& key) {
  fp::Fingerprint descriptor;
  for (int j = 0; j < fp::kDims; ++j) {
    descriptor[j] = static_cast<uint8_t>(a * 7 + j);
  }
  memtable->Append(descriptor, a, 3 * a + 1, static_cast<float>(a) + 0.5f,
                   static_cast<float>(a) * 2, key);
}

/// Checks the run layout of `memtable` after arrivals with `keys`: one run
/// per set bit of size(), oldest and longest first, each sorted by key
/// with arrival order kept among equal keys, every column aligned with its
/// record's arrival index.
void ExpectRunsWellFormed(const Memtable& memtable,
                          const std::vector<BitKey>& keys,
                          const std::string& where) {
  const size_t n = memtable.size();
  ASSERT_EQ(n, keys.size()) << where;
  ASSERT_EQ(memtable.num_runs(), static_cast<size_t>(std::popcount(n)))
      << where;
  size_t expected_size = std::bit_floor(n);
  size_t start = 0;
  for (size_t r = 0; r < memtable.num_runs(); ++r) {
    while ((n & expected_size) == 0) {
      expected_size >>= 1;
    }
    const MemtableRun run = memtable.run(r);
    ASSERT_EQ(run.size(), expected_size) << where << " run " << r;
    const core::DescriptorView view = run.View();
    for (size_t i = 0; i < run.size(); ++i) {
      const uint32_t a = view.id(i);
      ASSERT_LT(a, n) << where;
      EXPECT_EQ(memtable.keys()[start + i], keys[a]) << where;
      EXPECT_EQ(view.time_code(i), 3 * a + 1) << where;
      EXPECT_EQ(view.x(i), static_cast<float>(a) + 0.5f) << where;
      EXPECT_EQ(view.y(i), static_cast<float>(a) * 2) << where;
      EXPECT_EQ(view.descriptor(i)[fp::kDims - 1],
                static_cast<uint8_t>(a * 7 + fp::kDims - 1))
          << where;
      if (i > 0) {
        const BitKey& prev = keys[view.id(i - 1)];
        ASSERT_FALSE(keys[a] < prev) << where << " run " << r << " unsorted";
        if (prev == keys[a]) {
          EXPECT_LT(view.id(i - 1), a) << where << " arrival order lost";
        }
      }
    }
    EXPECT_EQ(run.min_key(), keys[view.id(0)]) << where;
    EXPECT_EQ(run.max_key(), keys[view.id(run.size() - 1)]) << where;
    start += run.size();
    expected_size >>= 1;
  }
}

/// ResolveRange of every run for [begin, end) returns exactly the records
/// the brute-force oracle puts in the section.
void ExpectLookupMatchesOracle(const Memtable& memtable,
                               const std::vector<BitKey>& keys,
                               const BitKey& begin, const BitKey& end,
                               const std::string& where) {
  for (size_t r = 0; r < memtable.num_runs(); ++r) {
    const MemtableRun run = memtable.run(r);
    const auto [first, last] = run.ResolveRange(begin, end);
    ASSERT_LE(first, last) << where;
    ASSERT_LE(last, run.size()) << where;
    for (size_t i = 0; i < run.size(); ++i) {
      const bool inside = first <= i && i < last;
      EXPECT_EQ(inside, KeyInSection(keys[run.View().id(i)], begin, end))
          << where << " run " << r << " record " << i;
    }
  }
}

TEST(MemtableTest, EmptyRunResolvesEveryRangeToNothing) {
  const MemtableRun run(core::DescriptorView{}, nullptr);
  EXPECT_TRUE(run.empty());
  EXPECT_EQ(run.ResolveRange(BitKey(5), BitKey(9)),
            (std::pair<size_t, size_t>(0, 0)));
  EXPECT_EQ(run.ResolveRange(BitKey::Zero(), BitKey::Zero()),
            (std::pair<size_t, size_t>(0, 0)));

  Memtable memtable;
  EXPECT_TRUE(memtable.empty());
  EXPECT_EQ(memtable.num_runs(), 0u);
  memtable.MergeAll();  // no runs to merge
  EXPECT_EQ(memtable.num_runs(), 0u);
  EXPECT_EQ(memtable.MemoryBytes(), 0u);
}

// Every binary-counter state from 0 to 2^k + 1 records: the run layout is
// the binary digits of the size, and each run answers random sections
// (half of them wrapping to the top of the key space) and its own
// boundary keys exactly like the oracle.
TEST(MemtableTest, EveryBinaryCounterStateMatchesOracle) {
  constexpr size_t kMaxRecords = (size_t{1} << 7) + 1;
  const hilbert::HilbertCurve curve(fp::kDims, 8);
  Rng rng(21);
  Memtable memtable;
  std::vector<BitKey> keys;
  for (size_t n = 0; n <= kMaxRecords; ++n) {
    const std::string where = "n=" + std::to_string(n);
    ExpectRunsWellFormed(memtable, keys, where);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
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
TEST(MemtableTest, SelectionOverRunsMatchesKeyInSelection) {
  const hilbert::HilbertCurve curve(fp::kDims, 8);
  Rng rng(22);
  for (int trial = 0; trial < 30; ++trial) {
    Memtable memtable;
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
        const MemtableRun run = memtable.run(r);
        const auto [first, last] = run.ResolveRange(begin, end);
        for (size_t i = first; i < last; ++i) {
          found.insert(run.View().id(i));
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

// Heavy key collisions: every merge, and the final MergeAll, keeps equal
// keys in arrival order — the order a stable sort of the arrivals gives.
TEST(MemtableTest, EqualKeysKeepArrivalOrderAcrossMerges) {
  Rng rng(23);
  Memtable memtable;
  std::vector<BitKey> keys;
  for (uint32_t a = 0; a < 1000; ++a) {
    keys.push_back(BitKey(static_cast<uint64_t>(rng.UniformInt(0, 9))));
    AppendArrival(&memtable, a, keys.back());
    if (a % 97 == 0) {
      ExpectRunsWellFormed(memtable, keys, "a=" + std::to_string(a));
    }
  }
  memtable.MergeAll();
  ASSERT_EQ(memtable.num_runs(), 1u);

  std::vector<uint32_t> order(keys.size());
  for (uint32_t a = 0; a < order.size(); ++a) {
    order[a] = a;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  const core::DescriptorBlock& block = memtable.block();
  ASSERT_EQ(block.size(), order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(block.id(i), order[i]) << i;
    EXPECT_EQ(memtable.keys()[i], keys[order[i]]) << i;
    EXPECT_EQ(block.time_code(i), 3 * order[i] + 1) << i;
  }

  memtable.Clear();
  EXPECT_TRUE(memtable.empty());
  EXPECT_EQ(memtable.num_runs(), 0u);
}

// A spill writes the merged runs as they are: a segment lists the records
// of one key (identical descriptors) in arrival order, at a threshold that
// is not a power of two (so every spill merges several runs), in each of
// several spills.
TEST(MemtableTest, SpillKeepsArrivalOrderForEqualKeys) {
  SegmentSearcherOptions options;
  options.spill_threshold = 100;
  options.store.sync_writes = false;
  auto searcher = SegmentSearcher::Open(core::DatabaseBuilder().Build(),
                                        options);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  fp::Fingerprint same;
  same.fill(77);
  Rng rng(24);
  for (uint32_t a = 0; a < 250; ++a) {
    // One repeated key among random ones: its records span every merge
    // level of each spilled memtable.
    const fp::Fingerprint f =
        a % 3 == 0 ? core::UniformRandomFingerprint(&rng) : same;
    ASSERT_TRUE((*searcher)->TryInsert(f, a, a));
  }
  EXPECT_EQ((*searcher)->pending_inserts(), 50u);

  const auto view = (*searcher)->segment_store().view();
  ASSERT_EQ(view->segments.size(), 2u);
  for (const auto& segment : view->segments) {
    ASSERT_EQ(segment->size(), 100u);
    size_t repeated = 0;
    for (size_t i = 1; i < segment->size(); ++i) {
      ASSERT_FALSE(segment->key(i) < segment->key(i - 1));
      if (segment->key(i) == segment->key(i - 1)) {
        ++repeated;
        EXPECT_LT(segment->Record(i - 1).time_code,
                  segment->Record(i).time_code)
            << "segment " << segment->segment_id() << " record " << i;
      }
    }
    EXPECT_GE(repeated, 60u);
  }
}

}  // namespace
}  // namespace s3vcd::store
