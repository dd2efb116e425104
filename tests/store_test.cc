#include "store/segment_store.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/synthetic_db.h"
#include "store/segment_format.h"
#include "store/segment_searcher.h"
#include "util/io.h"
#include "util/rng.h"

namespace s3vcd::store {
namespace {

namespace fs = std::filesystem;

/// A fresh per-test directory under the build tree's temp space.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("s3vcd_store_test_" + tag + "_" +
              std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// `count` random records with their orthant codes, sorted by code (the
/// writer's precondition), ids tagged with `id_base`.
void MakeSortedRun(size_t count, uint64_t seed, uint32_t id_base,
                   core::DescriptorBlock* block, std::vector<uint32_t>* codes) {
  Rng rng(seed);
  core::DatabaseBuilder builder;
  for (size_t i = 0; i < count; ++i) {
    builder.Add(core::UniformRandomFingerprint(&rng), id_base,
                static_cast<uint32_t>(i));
  }
  // DatabaseBuilder sorts by code, which is exactly what segments store;
  // reuse it instead of reimplementing the sort.
  const core::FingerprintDatabase db = builder.Build();
  block->Clear();
  *codes = db.codes();
  block->Reserve(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    block->AppendRecord(db.record(i));
  }
}

std::multiset<std::string> RecordSet(const SegmentStore& store) {
  std::multiset<std::string> out;
  for (const auto& segment : store.view()->segments) {
    for (size_t i = 0; i < segment->size(); ++i) {
      const core::FingerprintRecord r = segment->Record(i);
      std::string repr(reinterpret_cast<const char*>(r.descriptor.data()),
                       r.descriptor.size());
      repr.append("/").append(std::to_string(r.id));
      repr.append("/").append(std::to_string(r.time_code));
      out.insert(repr);
    }
  }
  return out;
}

std::vector<uint8_t> Slurp(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

void Dump(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// ---------------------------------------------------------------------------
// Segment file format
// ---------------------------------------------------------------------------

TEST(SegmentFormatTest, RoundtripMappedAndResident) {
  TempDir dir("roundtrip");
  const std::string path = dir.path() + "/seg-1.s3seg";
  core::DescriptorBlock block;
  std::vector<uint32_t> codes;
  MakeSortedRun(1000, 11, 7, &block, &codes);
  ASSERT_TRUE(WriteSegmentFile(path, 42, block, codes).ok());

  for (const bool use_mmap : {true, false}) {
    SegmentReadOptions options;
    options.use_mmap = use_mmap;
    auto reader = SegmentReader::Open(path, options);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    const SegmentReader& seg = **reader;
    EXPECT_EQ(seg.mapped(), use_mmap);
    EXPECT_EQ(seg.segment_id(), 42u);
    ASSERT_EQ(seg.size(), block.size());
    EXPECT_EQ(seg.run().min_code(), codes.front());
    EXPECT_EQ(seg.run().max_code(), codes.back());
    for (size_t i = 0; i < seg.size(); ++i) {
      EXPECT_EQ(seg.codes()[i], codes[i]);
      const core::FingerprintRecord got = seg.Record(i);
      const core::FingerprintRecord want = block.Record(i);
      EXPECT_EQ(got.descriptor, want.descriptor);
      EXPECT_EQ(got.id, want.id);
      EXPECT_EQ(got.time_code, want.time_code);
    }
    // The SoA view serves the same columns the records came from.
    const core::DescriptorView view = seg.View();
    ASSERT_EQ(view.size(), block.size());
    EXPECT_EQ(view.id(0), block.id(0));
    EXPECT_EQ(std::memcmp(view.descriptor(3), block.descriptor(3), fp::kDims),
              0);
  }
}

TEST(SegmentFormatTest, WriterRejectsUnsortedCodesAndLeavesNoFile) {
  TempDir dir("unsorted");
  const std::string path = dir.path() + "/seg-1.s3seg";
  core::DescriptorBlock block;
  std::vector<uint32_t> codes;
  MakeSortedRun(10, 12, 0, &block, &codes);
  std::swap(codes.front(), codes.back());
  const Status status = WriteSegmentFile(path, 1, block, codes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(fs::exists(path));
}

/// Every entry of the corruption matrix must yield kCorruption from Open —
/// never a crash, never a partially usable reader.
class SegmentCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("corruption");
    path_ = dir_->path() + "/seg-1.s3seg";
    core::DescriptorBlock block;
    std::vector<uint32_t> codes;
    MakeSortedRun(300, 13, 1, &block, &codes);
    ASSERT_TRUE(WriteSegmentFile(path_, 1, block, codes).ok());
    bytes_ = Slurp(path_);
    ASSERT_GE(bytes_.size(), kSegmentHeaderBytes + kSegmentFooterBytes);
  }

  /// Rewrites the file from `bytes_` and expects Open to report corruption.
  void ExpectCorrupt(const std::string& what) {
    Dump(path_, bytes_);
    const auto reader = SegmentReader::Open(path_);
    ASSERT_FALSE(reader.ok()) << "accepted " << what;
    EXPECT_EQ(reader.status().code(), StatusCode::kCorruption) << what;
  }

  uint8_t* footer() { return bytes_.data() + bytes_.size() - kSegmentFooterBytes; }

  /// The code column (section 0) of bytes_, copied out.
  std::vector<uint32_t> Codes() {
    uint64_t offset = 0;
    uint64_t length = 0;
    std::memcpy(&offset, footer() + 4, 8);
    std::memcpy(&length, footer() + 4 + 8, 8);
    std::vector<uint32_t> codes(length / 4);
    std::memcpy(codes.data(), bytes_.data() + offset, length);
    return codes;
  }

  /// Writes `codes` back as the code column and reseals the code section
  /// CRC and the footer's min/max code and CRC.
  void ResealCodes(const std::vector<uint32_t>& codes) {
    uint64_t offset = 0;
    std::memcpy(&offset, footer() + 4, 8);
    const size_t length = codes.size() * 4;
    std::memcpy(bytes_.data() + offset, codes.data(), length);
    const uint32_t crc = Crc32(codes.data(), length);
    std::memcpy(footer() + 4 + 16, &crc, 4);
    std::memcpy(footer() + kFooterMinCodeOff, &codes.front(), 4);
    std::memcpy(footer() + kFooterMaxCodeOff, &codes.back(), 4);
    ResealFooter();
  }

  /// Recomputes the footer CRC after the test edited footer fields, so the
  /// *structural* check under test fires instead of the checksum.
  void ResealFooter() {
    const uint32_t crc = Crc32(footer(), kFooterCrcOff);
    std::memcpy(footer() + kFooterCrcOff, &crc, 4);
  }

  /// Recomputes the header CRC after the test edited header fields (e.g.
  /// the codec tag), so the semantic check under test fires instead of the
  /// checksum.
  void ResealHeader() {
    const uint32_t crc = Crc32(bytes_.data(), kHeaderCrcOff);
    std::memcpy(bytes_.data() + kHeaderCrcOff, &crc, 4);
  }

  std::unique_ptr<TempDir> dir_;
  std::string path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(SegmentCorruptionTest, TruncatedFooter) {
  bytes_.resize(bytes_.size() - 17);
  ExpectCorrupt("truncated footer");
}

TEST_F(SegmentCorruptionTest, TruncatedBelowMinimumSize) {
  bytes_.resize(kSegmentHeaderBytes / 2);
  ExpectCorrupt("file shorter than header");
}

TEST_F(SegmentCorruptionTest, BadLeadingMagic) {
  bytes_[0] ^= 0xFF;
  ExpectCorrupt("bad leading magic");
}

TEST_F(SegmentCorruptionTest, BadTrailingMagic) {
  bytes_[bytes_.size() - 1] ^= 0xFF;
  ExpectCorrupt("bad trailing magic");
}

TEST_F(SegmentCorruptionTest, BadVersion) {
  uint32_t version = 99;
  std::memcpy(bytes_.data() + 4, &version, 4);
  // Recompute the header CRC so the version check itself fires.
  ResealHeader();
  ExpectCorrupt("unsupported version");
  // Version 1 (pre-codec) and version 2 (32-byte codes) files are rejected
  // too, not silently read with a guessed layout.
  for (version = 1; version <= 2; ++version) {
    std::memcpy(bytes_.data() + 4, &version, 4);
    ResealHeader();
    ExpectCorrupt("old version " + std::to_string(version));
  }
}

TEST_F(SegmentCorruptionTest, FlippedHeaderByte) {
  bytes_[17] ^= 0x01;  // inside the record count
  ExpectCorrupt("header bit flip");
}

TEST_F(SegmentCorruptionTest, FlippedSectionByte) {
  // A byte inside the descriptor section (section 1 starts after the
  // aligned code section); its CRC must catch the flip.
  uint64_t desc_offset = 0;
  std::memcpy(&desc_offset, footer() + 4 + 1 * 24, 8);
  bytes_[desc_offset + 5] ^= 0x40;
  ExpectCorrupt("section payload bit flip");
}

TEST_F(SegmentCorruptionTest, FlippedFooterByte) {
  footer()[kFooterMinCodeOff + 2] ^= 0x10;  // inside min_code
  ExpectCorrupt("footer bit flip");
}

TEST_F(SegmentCorruptionTest, OverlappingSectionOffsets) {
  // Point section 1 back at section 0's offset; reseal the footer CRC so
  // the overlap check (not the checksum) rejects it.
  std::memcpy(footer() + 4 + 1 * 24, footer() + 4 + 0 * 24, 8);
  ResealFooter();
  ExpectCorrupt("overlapping section offsets");
}

TEST_F(SegmentCorruptionTest, SectionOutOfBounds) {
  const uint64_t huge = bytes_.size() + (1u << 20);
  std::memcpy(footer() + 4 + 2 * 24, &huge, 8);
  ResealFooter();
  ExpectCorrupt("section beyond footer");
}

TEST_F(SegmentCorruptionTest, SectionLengthMismatch) {
  uint64_t length = 0;
  std::memcpy(&length, footer() + 4 + 3 * 24 + 8, 8);
  length -= 4;
  std::memcpy(footer() + 4 + 3 * 24 + 8, &length, 8);
  ResealFooter();
  ExpectCorrupt("section length inconsistent with count");
}

TEST_F(SegmentCorruptionTest, CodesOutOfOrder) {
  // Swap the first two distinct codes in place, then reseal the code
  // section and the footer so only the order invariant is violated.
  std::vector<uint32_t> codes = Codes();
  size_t i = 0;
  while (codes[i] == codes[i + 1]) {
    ++i;
  }
  std::swap(codes[i], codes[i + 1]);
  ResealCodes(codes);
  ExpectCorrupt("codes out of order");
}

// A code rewritten to another value that keeps the order, with the code
// section CRC and the footer resealed: only the check of each code
// against its descriptor catches it.
TEST_F(SegmentCorruptionTest, ResealedCodeRewriteKeepingOrder) {
  std::vector<uint32_t> codes = Codes();
  size_t i = 1;
  while (codes[i - 1] == codes[i]) {
    ++i;
  }
  codes[i] = codes[i - 1];
  ResealCodes(codes);
  ExpectCorrupt("a code that is not its descriptor's");
}

// The last section's offset moved to just below 2^64, where offset +
// length wraps past the footer: the bounds check must not overflow.
TEST_F(SegmentCorruptionTest, SectionOffsetWrappingPastTheEnd) {
  const uint64_t offset = ~uint64_t{kSectionAlign - 1};
  std::memcpy(footer() + 4 + (kNumSections - 2) * 24, &offset, 8);
  ResealFooter();
  ExpectCorrupt("section offset wrapping past the end");
}

// --- Codec rows of the corruption matrix: the header's codec tag must be
// 0 (exact bytes) and the codec-params section empty. ---

TEST_F(SegmentCorruptionTest, CodecTagFlipWithoutResealFailsHeaderChecksum) {
  // The codec tag lives inside the CRC-covered header prefix, so a bare
  // flip is caught as a checksum mismatch before any decode is attempted.
  bytes_[kHeaderCodecOff] = 2;
  ExpectCorrupt("codec tag flip without header reseal");
}

TEST_F(SegmentCorruptionTest, UnknownCodecTagIsRejected) {
  bytes_[kHeaderCodecOff] = 99;
  ResealHeader();
  ExpectCorrupt("unknown codec tag");
}

TEST_F(SegmentCorruptionTest, RetiredLvq8CodecTagIsRejected) {
  // Tag 1 belonged to the retired 8-bit codec (lvq8). A segment carrying
  // it, even with a resealed header, is refused as an unknown tag rather
  // than decoded under a guessed codec.
  bytes_[kHeaderCodecOff] = 1;
  ResealHeader();
  ExpectCorrupt("retired codec tag 1");
}

TEST_F(SegmentCorruptionTest, RetiredLvq4CodecTagIsRejected) {
  // Tag 2 belonged to the retired 4-bit codec (lvq4). Like tag 1 it is
  // refused as an unknown tag, even with a resealed header: a store written
  // under lvq4 must be compacted to exact by a build that still reads it.
  bytes_[kHeaderCodecOff] = 2;
  ResealHeader();
  ExpectCorrupt("retired codec tag 2");
}

TEST_F(SegmentCorruptionTest, ExactSegmentClaimingCodecParamsIsRejected) {
  // The params-section length check on its own: an exact segment whose
  // resealed section table claims a 96 B params section (0 B expected),
  // the size the retired lvq4 codec's parameters took.
  uint64_t params_length = 96;
  std::memcpy(footer() + 4 + 6 * 24 + 8, &params_length, 8);
  ResealFooter();
  ExpectCorrupt("exact segment with a params section");
}

// ---------------------------------------------------------------------------
// SegmentStore: manifest, compaction, crash safety
// ---------------------------------------------------------------------------

SegmentStoreOptions FastStoreOptions() {
  SegmentStoreOptions options;
  options.sync_writes = false;  // durability is exercised separately
  options.tier_base_records = 512;
  options.tier_fanin = 4;
  return options;
}

Result<std::unique_ptr<SegmentStore>> OpenStore(const std::string& dir) {
  return SegmentStore::Open(dir, FastStoreOptions());
}

TEST(SegmentStoreTest, AppendReopenPreservesEverything) {
  TempDir dir("reopen");
  std::multiset<std::string> want;
  {
    auto store = OpenStore(dir.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    core::DescriptorBlock block;
    std::vector<uint32_t> codes;
    for (int run = 0; run < 3; ++run) {
      MakeSortedRun(400, 20 + run, static_cast<uint32_t>(run), &block, &codes);
      ASSERT_TRUE((*store)->AppendSegment(block, codes).ok());
    }
    EXPECT_EQ((*store)->num_segments(), 3u);
    EXPECT_EQ((*store)->total_records(), 1200u);
    EXPECT_GT((*store)->DiskBytes(), 0u);
    want = RecordSet(**store);
  }
  auto reopened = SegmentStore::Open(dir.path(), FastStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->total_records(), 1200u);
  EXPECT_EQ(RecordSet(**reopened), want);

  // And appends keep working after a reopen (segment ids must not collide).
  core::DescriptorBlock block;
  std::vector<uint32_t> codes;
  MakeSortedRun(100, 30, 9, &block, &codes);
  ASSERT_TRUE((*reopened)->AppendSegment(block, codes).ok());
  EXPECT_EQ((*reopened)->total_records(), 1300u);
}

TEST(SegmentStoreTest, CompactionMergesTiersAndPreservesRecords) {
  TempDir dir("compact");
  auto store = OpenStore(dir.path());
  ASSERT_TRUE(store.ok());
  core::DescriptorBlock block;
  std::vector<uint32_t> codes;
  for (int run = 0; run < 5; ++run) {
    MakeSortedRun(300, 40 + run, static_cast<uint32_t>(run), &block, &codes);
    ASSERT_TRUE((*store)->AppendSegment(block, codes).ok());
  }
  const std::multiset<std::string> want = RecordSet(**store);
  const uint64_t generation_before = (*store)->generation();

  bool merged = false;
  ASSERT_TRUE((*store)->Compact(&merged).ok());
  EXPECT_TRUE(merged);
  EXPECT_EQ((*store)->num_segments(), 2u);  // 4 merged + 1 leftover
  EXPECT_GT((*store)->generation(), generation_before);
  EXPECT_EQ((*store)->total_records(), 1500u);
  EXPECT_EQ(RecordSet(**store), want);

  // The merged segment is itself sorted (SegmentReader::Open would have
  // rejected it otherwise) and a further round finds nothing to do.
  ASSERT_TRUE((*store)->Compact(&merged).ok());
  EXPECT_FALSE(merged);

  // Input files of the merge are gone from disk.
  size_t seg_files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    seg_files += entry.path().extension() == ".s3seg";
  }
  EXPECT_EQ(seg_files, 2u);
}

TEST(SegmentStoreTest, InFlightViewSurvivesCompaction) {
  TempDir dir("snapshot");
  auto store = OpenStore(dir.path());
  ASSERT_TRUE(store.ok());
  core::DescriptorBlock block;
  std::vector<uint32_t> codes;
  for (int run = 0; run < 4; ++run) {
    MakeSortedRun(200, 50 + run, static_cast<uint32_t>(run), &block, &codes);
    ASSERT_TRUE((*store)->AppendSegment(block, codes).ok());
  }
  // Hold a snapshot across the compaction, as an in-flight query would.
  const auto snapshot = (*store)->view();
  ASSERT_TRUE((*store)->CompactAll().ok());
  EXPECT_EQ(snapshot->segments.size(), 4u);
  uint64_t sum = 0;
  for (const auto& segment : snapshot->segments) {
    for (size_t i = 0; i < segment->size(); ++i) {
      sum += segment->Record(i).id;  // reads must still be served
    }
  }
  EXPECT_GT(sum, 0u);
}

TEST(SegmentStoreTest, CrashBeforeManifestSwapKeepsOldGeneration) {
  TempDir dir("crash");
  std::multiset<std::string> want;
  uint64_t generation = 0;
  {
    auto store = OpenStore(dir.path());
    ASSERT_TRUE(store.ok());
    core::DescriptorBlock block;
    std::vector<uint32_t> codes;
    for (int run = 0; run < 4; ++run) {
      MakeSortedRun(250, 60 + run, static_cast<uint32_t>(run), &block, &codes);
      ASSERT_TRUE((*store)->AppendSegment(block, codes).ok());
    }
    want = RecordSet(**store);
    generation = (*store)->generation();

    // "Crash" at the worst moment: the merged segment is fully written and
    // renamed into place, but the manifest swap never happens.
    (*store)->set_fail_before_manifest_swap_for_test(true);
    bool merged = true;
    const Status status = (*store)->Compact(&merged);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ((*store)->generation(), generation);
    EXPECT_EQ(RecordSet(**store), want);
  }
  // Reopen: the old generation is intact, the orphaned merge output is
  // garbage-collected, and a fresh compaction succeeds.
  auto reopened = SegmentStore::Open(dir.path(), FastStoreOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->generation(), generation);
  EXPECT_EQ((*reopened)->num_segments(), 4u);
  EXPECT_EQ(RecordSet(**reopened), want);
  ASSERT_TRUE((*reopened)->CompactAll().ok());
  EXPECT_EQ(RecordSet(**reopened), want);
}

TEST(SegmentStoreTest, ManifestCorruptionIsDetected) {
  TempDir dir("badmanifest");
  std::string manifest_path;
  {
    auto store = OpenStore(dir.path());
    ASSERT_TRUE(store.ok());
    core::DescriptorBlock block;
    std::vector<uint32_t> codes;
    MakeSortedRun(100, 70, 0, &block, &codes);
    ASSERT_TRUE((*store)->AppendSegment(block, codes).ok());
    std::ifstream current(dir.path() + "/CURRENT");
    std::string name;
    std::getline(current, name);
    manifest_path = dir.path() + "/" + name;
  }
  ASSERT_TRUE(fs::exists(manifest_path));
  std::vector<uint8_t> bytes = Slurp(manifest_path);
  bytes[bytes.size() / 2] ^= 0x01;
  Dump(manifest_path, bytes);
  const auto reopened = SegmentStore::Open(dir.path(), FastStoreOptions());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST(SegmentStoreTest, CurrentNamingMissingManifestIsCorruption) {
  TempDir dir("badcurrent");
  {
    auto store = OpenStore(dir.path());
    ASSERT_TRUE(store.ok());
    core::DescriptorBlock block;
    std::vector<uint32_t> codes;
    MakeSortedRun(50, 71, 0, &block, &codes);
    ASSERT_TRUE((*store)->AppendSegment(block, codes).ok());
  }
  std::ofstream current(dir.path() + "/CURRENT", std::ios::trunc);
  current << "MANIFEST-424242\n";
  current.close();
  const auto reopened = SegmentStore::Open(dir.path(), FastStoreOptions());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST(SegmentStoreTest, ConcurrentReadersDuringCompaction) {
  TempDir dir("concurrent");
  auto store_or = OpenStore(dir.path());
  ASSERT_TRUE(store_or.ok());
  SegmentStore* store = store_or->get();
  core::DescriptorBlock block;
  std::vector<uint32_t> codes;
  for (int run = 0; run < 8; ++run) {
    MakeSortedRun(200, 80 + run, static_cast<uint32_t>(run), &block, &codes);
    ASSERT_TRUE(store->AppendSegment(block, codes).ok());
  }
  const uint64_t total = store->total_records();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto view = store->view();
        uint64_t seen = 0;
        for (const auto& segment : view->segments) {
          seen += segment->size();
          if (!segment->empty()) {
            (void)segment->Record(segment->size() / 2);
          }
        }
        EXPECT_EQ(seen, total);  // every snapshot is a complete generation
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  ASSERT_TRUE(store->CompactAll().ok());
  // One more append + compaction while readers hammer the view.
  MakeSortedRun(200, 99, 99, &block, &codes);
  // NOTE: total changes now, so stop the readers first.
  stop.store(true);
  for (auto& thread : readers) {
    thread.join();
  }
  EXPECT_GT(reads.load(), 0u);
  ASSERT_TRUE(store->AppendSegment(block, codes).ok());
  EXPECT_EQ(store->total_records(), total + 200);
}

// Ephemeral searchers (no --store-dir) must each materialize their own
// private temp directory: the mkdtemp template is rewritten in place, so
// two live searchers never share (and never delete) each other's store.
TEST(SegmentSearcherTest, EphemeralSearchersGetDistinctMaterializedDirs) {
  const SegmentSearcherOptions options;  // empty store_dir = ephemeral
  auto a = SegmentSearcher::Open(core::FingerprintDatabase(), options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = SegmentSearcher::Open(core::FingerprintDatabase(), options);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  const std::string dir_a = (*a)->store_dir();
  const std::string dir_b = (*b)->store_dir();
  EXPECT_NE(dir_a, dir_b) << "ephemeral searchers share a store directory";
  // The template placeholder must be gone and the directories must exist.
  EXPECT_EQ(dir_a.find("XXXXXX"), std::string::npos) << dir_a;
  EXPECT_EQ(dir_b.find("XXXXXX"), std::string::npos) << dir_b;
  EXPECT_TRUE(std::filesystem::is_directory(dir_a));
  EXPECT_TRUE(std::filesystem::is_directory(dir_b));

  // Destroying one searcher removes only its own directory.
  a->reset();
  EXPECT_FALSE(std::filesystem::exists(dir_a));
  EXPECT_TRUE(std::filesystem::is_directory(dir_b));
  b->reset();
  EXPECT_FALSE(std::filesystem::exists(dir_b));
}

}  // namespace
}  // namespace s3vcd::store
