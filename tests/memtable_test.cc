// Tests of the segment store's write buffer (store/memtable): the binary-
// counter run schedule, which runs carry prefix tables, and arrival order
// among equal codes across merges and spills. The runs' section lookups are tested with every other sorted
// run in sorted_run_test.cc.

#include "store/memtable.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/descriptor_block.h"
#include "core/synthetic_db.h"
#include "core/filter.h"
#include "fingerprint/fingerprint.h"
#include "store/segment_searcher.h"
#include "util/rng.h"

namespace s3vcd::store {
namespace {

uint32_t RandomCode(Rng* rng) {
  return static_cast<uint32_t>(rng->UniformInt(0, core::kCodeEnd - 1));
}

// ---- Memtable ---------------------------------------------------------

/// Appends record `a` (its arrival index) to `memtable`: the id is the
/// arrival index and every other column is derived from it, so a test can
/// check that a merge moved all columns of a record together.
void AppendArrival(Memtable* memtable, uint32_t a, uint32_t code) {
  fp::Fingerprint descriptor;
  for (int j = 0; j < fp::kDims; ++j) {
    descriptor[j] = static_cast<uint8_t>(a * 7 + j);
  }
  memtable->Append(descriptor, a, 3 * a + 1, static_cast<float>(a) + 0.5f,
                   static_cast<float>(a) * 2, code);
}

/// Checks the run layout of `memtable` after arrivals with `codes`: one
/// run per set bit of size(), oldest and longest first, each sorted by
/// code with arrival order kept among equal codes, every column aligned
/// with its record's arrival index.
void ExpectRunsWellFormed(const Memtable& memtable,
                          const std::vector<uint32_t>& codes,
                          const std::string& where) {
  const size_t n = memtable.size();
  ASSERT_EQ(n, codes.size()) << where;
  ASSERT_EQ(memtable.num_runs(), static_cast<size_t>(std::popcount(n)))
      << where;
  size_t expected_size = std::bit_floor(n);
  size_t start = 0;
  for (size_t r = 0; r < memtable.num_runs(); ++r) {
    while ((n & expected_size) == 0) {
      expected_size >>= 1;
    }
    const core::SortedRun run = memtable.run(r);
    ASSERT_EQ(run.size(), expected_size) << where << " run " << r;
    const core::DescriptorView& view = run.view();
    for (size_t i = 0; i < run.size(); ++i) {
      const uint32_t a = view.id(i);
      ASSERT_LT(a, n) << where;
      EXPECT_EQ(memtable.codes()[start + i], codes[a]) << where;
      EXPECT_EQ(view.time_code(i), 3 * a + 1) << where;
      EXPECT_EQ(view.x(i), static_cast<float>(a) + 0.5f) << where;
      EXPECT_EQ(view.y(i), static_cast<float>(a) * 2) << where;
      EXPECT_EQ(view.descriptor(i)[fp::kDims - 1],
                static_cast<uint8_t>(a * 7 + fp::kDims - 1))
          << where;
      if (i > 0) {
        const uint32_t prev = codes[view.id(i - 1)];
        ASSERT_GE(codes[a], prev) << where << " run " << r << " unsorted";
        if (prev == codes[a]) {
          EXPECT_LT(view.id(i - 1), a) << where << " arrival order lost";
        }
      }
    }
    EXPECT_EQ(run.min_code(), codes[view.id(0)]) << where;
    EXPECT_EQ(run.max_code(), codes[view.id(run.size() - 1)]) << where;
    start += run.size();
    expected_size >>= 1;
  }
}

TEST(MemtableTest, EmptyMemtableHasNoRuns) {
  Memtable memtable;
  EXPECT_TRUE(memtable.empty());
  EXPECT_EQ(memtable.num_runs(), 0u);
  memtable.MergeAll();  // no runs to merge
  EXPECT_EQ(memtable.num_runs(), 0u);
  EXPECT_EQ(memtable.MemoryBytes(), 0u);
}

// Every binary-counter state from 0 to 2^11 + 1 records: the run layout is
// the binary digits of the size, and exactly the runs of kMinIndexedRun
// records or more carry the prefix table of their own codes.
TEST(MemtableTest, EveryBinaryCounterStateIsWellFormed) {
  constexpr size_t kMaxRecords = (size_t{1} << 11) + 1;
  Rng rng(21);
  Memtable memtable;
  std::vector<uint32_t> codes;
  for (size_t n = 0; n <= kMaxRecords; ++n) {
    const std::string where = "n=" + std::to_string(n);
    if (n <= 129 || n % 64 <= 1) {
      ExpectRunsWellFormed(memtable, codes, where);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    uint64_t table_bytes = 0;
    for (size_t r = 0; r < memtable.num_runs(); ++r) {
      const core::SortedRun run = memtable.run(r);
      if (run.size() < Memtable::kMinIndexedRun) {
        EXPECT_EQ(run.table(), nullptr) << where;
        continue;
      }
      ASSERT_NE(run.table(), nullptr) << where;
      EXPECT_EQ(run.table()->size(), run.size()) << where;
      EXPECT_EQ(run.table()->depth(), core::PrefixTable::RunDepth(run.size()))
          << where;
      table_bytes += run.table()->MemoryBytes();
    }
    EXPECT_EQ(memtable.MemoryBytes(),
              memtable.block().MemoryBytes() + n * sizeof(uint32_t) +
                  table_bytes)
        << where;
    codes.push_back(RandomCode(&rng));
    AppendArrival(&memtable, static_cast<uint32_t>(n), codes.back());
  }
}

// Heavy code collisions: every merge, and the final MergeAll, keeps equal
// codes in arrival order — the order a stable sort of the arrivals gives.
TEST(MemtableTest, EqualCodesKeepArrivalOrderAcrossMerges) {
  Rng rng(23);
  Memtable memtable;
  std::vector<uint32_t> codes;
  for (uint32_t a = 0; a < 1000; ++a) {
    codes.push_back(static_cast<uint32_t>(rng.UniformInt(0, 9)));
    AppendArrival(&memtable, a, codes.back());
    if (a % 97 == 0) {
      ExpectRunsWellFormed(memtable, codes, "a=" + std::to_string(a));
    }
  }
  memtable.MergeAll();
  ASSERT_EQ(memtable.num_runs(), 1u);

  std::vector<uint32_t> order(codes.size());
  for (uint32_t a = 0; a < order.size(); ++a) {
    order[a] = a;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return codes[a] < codes[b]; });
  const core::DescriptorBlock& block = memtable.block();
  ASSERT_EQ(block.size(), order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(block.id(i), order[i]) << i;
    EXPECT_EQ(memtable.codes()[i], codes[order[i]]) << i;
    EXPECT_EQ(block.time_code(i), 3 * order[i] + 1) << i;
  }

  memtable.Clear();
  EXPECT_TRUE(memtable.empty());
  EXPECT_EQ(memtable.num_runs(), 0u);
}

// A spill writes the merged runs as they are: a segment lists the records
// of one code in arrival order, at a threshold that
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
    // One repeated code among random ones: its records span every merge
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
      ASSERT_GE(segment->codes()[i], segment->codes()[i - 1]);
      if (segment->codes()[i] == segment->codes()[i - 1]) {
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
