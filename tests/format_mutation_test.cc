// Seeded mutation test of the on-disk formats: the .s3db database (v2), the
// .s3seg segment (v3) and the segment store's MANIFEST (v2). Each trial
// applies one mutation to a pristine file: a bit flip, a truncation, or a
// rewrite of a count, length, offset, code or min/max field, some with
// their checksums resealed. The only acceptable outcomes are kCorruption,
// or a reader whose query answers equal those of an in-memory index: over
// the original records when no checksum was resealed, over the records the
// reader serves when one was (a resealed rewrite is a different, valid
// file). Files of the previous versions are rejected as unsupported. Runs
// under ASan and UBSan via tools/run_tsan_tests.sh.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/filter.h"
#include "core/index.h"
#include "core/pseudo_disk.h"
#include "core/sorted_run.h"
#include "core/synthetic_db.h"
#include "store/segment_format.h"
#include "store/segment_store.h"
#include "util/io.h"
#include "util/rng.h"

namespace s3vcd {
namespace {

namespace fs = std::filesystem;
using core::FingerprintRecord;

constexpr int kTrials = 300;  // per format
constexpr double kSigma = 20.0;
constexpr double kAlpha = 0.8;
constexpr int kPseudoDiskDepth = 10;

// ---- Data, probes and answers -------------------------------------------

/// Clustered records, every fifth a repeat of an earlier descriptor, so the
/// code column holds ties.
std::vector<FingerprintRecord> MakeRecords(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<fp::Fingerprint> centres;
  for (int c = 0; c < 8; ++c) {
    centres.push_back(core::UniformRandomFingerprint(&rng));
  }
  std::vector<FingerprintRecord> records;
  for (size_t i = 0; i < count; ++i) {
    FingerprintRecord r;
    r.descriptor =
        i % 5 == 4 ? records[static_cast<size_t>(rng.UniformInt(
                         0, static_cast<int64_t>(i) - 1))]
                         .descriptor
                   : core::DistortFingerprint(centres[i % 8], 30.0, &rng);
    r.id = static_cast<uint32_t>(i % 11);
    r.time_code = static_cast<uint32_t>(i);
    r.x = static_cast<float>(i % 13);
    r.y = static_cast<float>(i % 7);
    records.push_back(r);
  }
  return records;
}

core::FingerprintDatabase Build(const std::vector<FingerprintRecord>& records) {
  core::DatabaseBuilder builder;
  for (const FingerprintRecord& r : records) {
    builder.Add(r.descriptor, r.id, r.time_code, r.x, r.y);
  }
  return builder.Build();
}

struct Probe {
  fp::Fingerprint query;
  core::BlockSelection selection;
};

/// Distorted self-queries, each selected statistically at the pseudo-disk's
/// depth, statistically at depth 4, and by a range at depth 8.
std::vector<Probe> MakeProbes(const std::vector<FingerprintRecord>& records) {
  Rng rng(99);
  const core::BlockFilter filter;
  const core::GaussianDistortionModel model(kSigma);
  std::vector<Probe> probes;
  for (int q = 0; q < 6; ++q) {
    const fp::Fingerprint query = core::DistortFingerprint(
        records[static_cast<size_t>(q) * 37 % records.size()].descriptor,
        kSigma, &rng);
    for (const int depth : {kPseudoDiskDepth, 4}) {
      core::FilterOptions options;
      options.depth = depth;
      options.alpha = kAlpha;
      probes.push_back({query, filter.SelectStatistical(query, model,
                                                        options)});
    }
    probes.push_back({query, filter.SelectRange(query, 60.0, 8)});
  }
  return probes;
}

using Answer = std::vector<std::tuple<uint32_t, uint32_t, float, float, float>>;

Answer Sorted(const std::vector<core::Match>& matches) {
  Answer answer;
  for (const core::Match& m : matches) {
    answer.emplace_back(m.id, m.time_code, m.distance, m.x, m.y);
  }
  std::sort(answer.begin(), answer.end());
  return answer;
}

/// Every probe's answer over `runs`.
std::vector<Answer> RunAnswers(const std::vector<core::SortedRun>& runs,
                               const std::vector<Probe>& probes) {
  std::vector<Answer> answers;
  const core::RefineSpec spec(core::RefinementMode::kAll, 0, nullptr);
  for (const Probe& p : probes) {
    core::QueryResult result;
    core::ScanSortedRuns(p.query, p.selection, runs, spec, &result);
    answers.push_back(Sorted(result.matches));
  }
  return answers;
}

/// Every probe's answer from an in-memory index over `records`.
std::vector<Answer> IndexAnswers(const std::vector<FingerprintRecord>& records,
                                 const std::vector<Probe>& probes) {
  const core::S3Index index(Build(records));
  return RunAnswers({index.run()}, probes);
}

// ---- Mutations ------------------------------------------------------------

struct Field {
  size_t offset;
  size_t width;  // 1, 4 or 8 bytes
};

struct Mutant {
  std::vector<uint8_t> bytes;
  bool resealed = false;
  std::string what;
};

void PutField(std::vector<uint8_t>* bytes, const Field& f, uint64_t v) {
  std::memcpy(bytes->data() + f.offset, &v, f.width);
}

uint64_t GetField(const std::vector<uint8_t>& bytes, const Field& f) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + f.offset, f.width);
  return v;
}

/// One seeded mutation of `pristine`: a flip (resealed or not), a
/// truncation, or a resealed rewrite of one of `fields`.
Mutant Mutate(const std::vector<uint8_t>& pristine,
              const std::vector<Field>& fields, Rng* rng) {
  Mutant m{pristine, false, ""};
  const auto pos = [&] {
    return static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(pristine.size()) - 1));
  };
  switch (rng->UniformInt(0, 3)) {
    case 0:
    case 1: {
      const size_t at = pos();
      m.bytes[at] ^= static_cast<uint8_t>(1u << rng->UniformInt(0, 7));
      m.resealed = rng->UniformInt(0, 1) == 1;
      m.what = "flip at " + std::to_string(at);
      break;
    }
    case 2: {
      const size_t keep = pos();
      m.bytes.resize(keep);
      m.what = "truncation to " + std::to_string(keep);
      break;
    }
    default: {
      const Field f = fields[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(fields.size()) - 1))];
      const uint64_t v = GetField(pristine, f);
      const uint64_t all = f.width == 8 ? ~uint64_t{0}
                                        : (uint64_t{1} << (8 * f.width)) - 1;
      const uint64_t values[] = {0,     1,     v - 1, v + 1, v * 2,
                                 v / 2, all,   all / 2,
                                 v ^ (uint64_t{1} << rng->UniformInt(
                                          0, 8 * static_cast<int>(f.width) -
                                                 1))};
      const uint64_t nv = values[rng->UniformInt(0, 8)] & all;
      PutField(&m.bytes, f, nv);
      m.resealed = true;
      m.what = "field at " + std::to_string(f.offset) + " := " +
               std::to_string(nv);
      break;
    }
  }
  return m;
}

/// Reseals a trailing CRC-32 over everything before it (.s3db, MANIFEST).
void ResealTrailingCrc(std::vector<uint8_t>* bytes) {
  if (bytes->size() >= 4) {
    const uint32_t crc = Crc32(bytes->data(), bytes->size() - 4);
    std::memcpy(bytes->data() + bytes->size() - 4, &crc, 4);
  }
}

/// Reseals every checksum of a segment: the header's, each section's that
/// the footer locates inside the file, and the footer's.
void ResealSegment(std::vector<uint8_t>* bytes) {
  using namespace store;
  const size_t size = bytes->size();
  if (size < kSegmentHeaderBytes + kSegmentFooterBytes) {
    return;
  }
  uint8_t* data = bytes->data();
  const uint32_t header_crc = Crc32(data, kHeaderCrcOff);
  std::memcpy(data + kHeaderCrcOff, &header_crc, 4);
  uint8_t* footer = data + size - kSegmentFooterBytes;
  for (uint32_t s = 0; s < kNumSections; ++s) {
    uint64_t offset = 0;
    uint64_t length = 0;
    std::memcpy(&offset, footer + 4 + s * 24, 8);
    std::memcpy(&length, footer + 4 + s * 24 + 8, 8);
    if (offset <= size && length <= size - offset) {
      const uint32_t crc = Crc32(data + offset, length);
      std::memcpy(footer + 4 + s * 24 + 16, &crc, 4);
    }
  }
  const uint32_t footer_crc = Crc32(footer, kFooterCrcOff);
  std::memcpy(footer + kFooterCrcOff, &footer_crc, 4);
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::vector<uint8_t>();
}

class FormatMutationTest : public testing::Test {
 protected:
  FormatMutationTest()
      : dir_(testing::TempDir() + "/format_mutation_" +
             std::to_string(::getpid())),
        records_(MakeRecords(400, 5)),
        probes_(MakeProbes(records_)),
        want_(IndexAnswers(records_, probes_)) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~FormatMutationTest() override { fs::remove_all(dir_); }

  /// Checks one reader outcome: kCorruption, or answers equal to those of
  /// an index over the original records (`served` when resealed).
  void ExpectAcceptable(const Status& status,
                        const std::vector<Answer>& answers,
                        const std::vector<FingerprintRecord>& served,
                        const Mutant& m, const std::string& reader) {
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kCorruption)
          << reader << ", " << m.what << ": " << status.ToString();
      return;
    }
    const std::vector<Answer> want =
        m.resealed ? IndexAnswers(served, probes_) : want_;
    EXPECT_EQ(answers, want) << reader << " served wrong answers after "
                             << m.what
                             << (m.resealed ? " (resealed)" : "");
  }

  std::string dir_;
  std::vector<FingerprintRecord> records_;
  std::vector<Probe> probes_;
  std::vector<Answer> want_;
};

// ---- .s3db ------------------------------------------------------------------

TEST_F(FormatMutationTest, DatabaseFile) {
  const std::string path = dir_ + "/db.s3db";
  ASSERT_TRUE(Build(records_).SaveToFile(path).ok());
  const std::vector<uint8_t> pristine = ReadFile(path);
  // The count, and the descriptor bytes of a few records (their codes).
  std::vector<Field> fields = {{12, 8}};
  for (size_t i = 0; i < 400; i += 57) {
    fields.push_back(
        {core::internal::kHeaderBytes + i * core::internal::kRecordBytes, 8});
  }
  core::PseudoDiskOptions disk;
  disk.section_depth = 3;
  disk.query_depth = kPseudoDiskDepth;
  disk.alpha = kAlpha;
  const core::GaussianDistortionModel model(kSigma);
  Rng rng(2024);
  for (int trial = 0; trial < kTrials; ++trial) {
    Mutant m = Mutate(pristine, fields, &rng);
    if (m.resealed) {
      ResealTrailingCrc(&m.bytes);
    }
    WriteFile(path, m.bytes);

    auto loaded = core::FingerprintDatabase::LoadFromFile(path);
    std::vector<FingerprintRecord> served;
    std::vector<Answer> answers;
    if (loaded.ok()) {
      for (size_t i = 0; i < loaded->size(); ++i) {
        served.push_back(loaded->record(i));
      }
      const core::S3Index index(std::move(*loaded));
      answers = RunAnswers({index.run()}, probes_);
    }
    ExpectAcceptable(loaded.status(), answers, served, m, "loader");

    // The pseudo-disk reads the same file by its own streaming pass; it
    // serves the statistical probes at its depth (every third probe).
    auto searcher = core::PseudoDiskSearcher::Open(path, disk);
    std::vector<Answer> disk_answers;
    std::vector<Answer> want_disk;
    Status status = searcher.status();
    if (searcher.ok()) {
      std::vector<fp::Fingerprint> queries;
      std::vector<Probe> disk_probes;
      for (size_t p = 0; p < probes_.size(); p += 3) {
        queries.push_back(probes_[p].query);
        disk_probes.push_back(probes_[p]);
      }
      std::vector<std::vector<core::Match>> results;
      core::PseudoDiskBatchStats stats;
      status = searcher->SearchBatch(queries, model, &results, &stats);
      for (const auto& matches : results) {
        disk_answers.push_back(Sorted(matches));
      }
      if (status.ok()) {
        // A resealed file the pseudo-disk accepts is one the loader
        // accepts too: compare with the index over its records.
        ASSERT_TRUE(!m.resealed || loaded.ok()) << m.what;
        want_disk = IndexAnswers(m.resealed ? served : records_, disk_probes);
        EXPECT_EQ(disk_answers, want_disk) << "pseudo-disk, " << m.what;
        continue;
      }
    }
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << "pseudo-disk, " << m.what << ": " << status.ToString();
  }
}

TEST_F(FormatMutationTest, VersionOneDatabaseIsUnsupported) {
  // Version 1 carried a curve order field after the dimensionality.
  const std::string path = dir_ + "/v1.s3db";
  ASSERT_TRUE(Build(records_).SaveToFile(path).ok());
  std::vector<uint8_t> bytes = ReadFile(path);
  const uint32_t version = 1;
  const uint32_t order = 8;
  std::memcpy(bytes.data() + 4, &version, 4);
  bytes.insert(bytes.begin() + 12, reinterpret_cast<const uint8_t*>(&order),
               reinterpret_cast<const uint8_t*>(&order) + 4);
  ResealTrailingCrc(&bytes);
  WriteFile(path, bytes);
  const auto loaded = core::FingerprintDatabase::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("unsupported database version"),
            std::string::npos)
      << loaded.status().ToString();
  const auto searcher =
      core::PseudoDiskSearcher::Open(path, core::PseudoDiskOptions{});
  ASSERT_FALSE(searcher.ok());
  EXPECT_NE(searcher.status().message().find("unsupported database version"),
            std::string::npos)
      << searcher.status().ToString();
}

// ---- .s3seg -----------------------------------------------------------------

TEST_F(FormatMutationTest, SegmentFile) {
  using namespace store;
  const std::string path = dir_ + "/seg-1.s3seg";
  const core::FingerprintDatabase db = Build(records_);
  ASSERT_TRUE(
      WriteSegmentFile(path, 1, db.block(), db.codes(), {.sync = false}).ok());
  const std::vector<uint8_t> pristine = ReadFile(path);
  const size_t footer = pristine.size() - kSegmentFooterBytes;
  std::vector<Field> fields = {{8, 4},
                               {kHeaderCodecOff, 1},
                               {kHeaderCountOff, 8},
                               {24, 8},
                               {footer, 4},
                               {footer + kFooterMinCodeOff, 4},
                               {footer + kFooterMaxCodeOff, 4},
                               {footer + kFooterOffsetOff, 8}};
  uint64_t codes_offset = 0;
  std::memcpy(&codes_offset, pristine.data() + footer + 4, 8);
  for (uint32_t s = 0; s < kNumSections; ++s) {
    fields.push_back({footer + 4 + s * 24, 8});      // offset
    fields.push_back({footer + 4 + s * 24 + 8, 8});  // length
  }
  for (size_t i = 0; i < 400; i += 23) {
    fields.push_back({codes_offset + 4 * i, 4});  // a code
  }
  Rng rng(2025);
  for (int trial = 0; trial < kTrials; ++trial) {
    Mutant m = Mutate(pristine, fields, &rng);
    if (m.resealed) {
      ResealSegment(&m.bytes);
    }
    WriteFile(path, m.bytes);
    const auto reader = SegmentReader::Open(path, {trial % 2 == 0});
    std::vector<FingerprintRecord> served;
    std::vector<Answer> answers;
    if (reader.ok()) {
      for (size_t i = 0; i < (*reader)->size(); ++i) {
        served.push_back((*reader)->Record(i));
      }
      answers = RunAnswers({(*reader)->run()}, probes_);
    }
    ExpectAcceptable(reader.status(), answers, served, m, "segment reader");
  }
}

TEST_F(FormatMutationTest, VersionTwoSegmentIsUnsupported) {
  using namespace store;
  const std::string path = dir_ + "/seg-1.s3seg";
  const core::FingerprintDatabase db = Build(records_);
  ASSERT_TRUE(
      WriteSegmentFile(path, 1, db.block(), db.codes(), {.sync = false}).ok());
  std::vector<uint8_t> bytes = ReadFile(path);
  const uint32_t version = 2;
  std::memcpy(bytes.data() + 4, &version, 4);
  ResealSegment(&bytes);
  WriteFile(path, bytes);
  const auto reader = SegmentReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reader.status().message().find("unsupported segment version 2"),
            std::string::npos)
      << reader.status().ToString();
}

// ---- MANIFEST ----------------------------------------------------------------

/// A store of three segments; returns the live manifest's name.
std::string MakeStore(const std::string& dir,
                      const std::vector<FingerprintRecord>& records) {
  store::SegmentStoreOptions options;
  options.sync_writes = false;
  auto store = store::SegmentStore::Open(dir, options);
  EXPECT_TRUE(store.ok());
  for (size_t part = 0; part < 3; ++part) {
    const std::vector<FingerprintRecord> slice(
        records.begin() + static_cast<std::ptrdiff_t>(part * 150),
        records.begin() +
            static_cast<std::ptrdiff_t>(std::min<size_t>(records.size(),
                                                         part * 150 + 150)));
    const core::FingerprintDatabase db = Build(slice);
    EXPECT_TRUE((*store)->AppendSegment(db.block(), db.codes()).ok());
  }
  return "MANIFEST-" + std::to_string((*store)->generation());
}

TEST_F(FormatMutationTest, Manifest) {
  const std::string store_dir = dir_ + "/store";
  const std::string manifest = MakeStore(store_dir, records_);
  // The live files, to restore before each trial (opening a store removes
  // the files its manifest does not name).
  std::vector<std::pair<std::string, std::vector<uint8_t>>> files;
  for (const auto& entry : fs::directory_iterator(store_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("MANIFEST-", 0) != 0 || name == manifest) {
      files.emplace_back(entry.path().string(),
                         ReadFile(entry.path().string()));
    }
  }
  const std::vector<uint8_t> pristine = ReadFile(store_dir + "/" + manifest);
  // generation, next segment id, segment count; then per entry its id,
  // record count and name length.
  std::vector<Field> fields = {{8, 8}, {16, 8}, {24, 4}};
  size_t at = 28;
  for (int e = 0; e < 3; ++e) {
    fields.push_back({at, 8});
    fields.push_back({at + 8, 8});
    fields.push_back({at + 16, 4});
    uint32_t name_length = 0;
    std::memcpy(&name_length, pristine.data() + at + 16, 4);
    at += 20 + name_length;
  }
  ASSERT_EQ(at + 4, pristine.size()) << "manifest layout";

  store::SegmentStoreOptions options;
  options.sync_writes = false;
  Rng rng(2026);
  for (int trial = 0; trial < kTrials; ++trial) {
    fs::remove_all(store_dir);
    fs::create_directories(store_dir);
    for (const auto& [path, bytes] : files) {
      WriteFile(path, bytes);
    }
    Mutant m = Mutate(pristine, fields, &rng);
    if (m.resealed) {
      ResealTrailingCrc(&m.bytes);
    }
    WriteFile(store_dir + "/" + manifest, m.bytes);
    options.use_mmap = trial % 2 == 0;
    const auto store = store::SegmentStore::Open(store_dir, options);
    std::vector<FingerprintRecord> served;
    std::vector<Answer> answers;
    if (store.ok()) {
      std::vector<core::SortedRun> runs;
      const auto view = (*store)->view();
      for (const auto& segment : view->segments) {
        runs.push_back(segment->run());
        for (size_t i = 0; i < segment->size(); ++i) {
          served.push_back(segment->Record(i));
        }
      }
      answers = RunAnswers(runs, probes_);
    }
    ExpectAcceptable(store.status(), answers, served, m, "segment store");
  }
}

TEST_F(FormatMutationTest, VersionOneManifestIsUnsupported) {
  // Version 1 carried a curve order field after the generation.
  const std::string store_dir = dir_ + "/store_v1";
  const std::string manifest = MakeStore(store_dir, records_);
  std::vector<uint8_t> bytes = ReadFile(store_dir + "/" + manifest);
  const uint32_t version = 1;
  const uint32_t order = 8;
  std::memcpy(bytes.data() + 4, &version, 4);
  bytes.insert(bytes.begin() + 16, reinterpret_cast<const uint8_t*>(&order),
               reinterpret_cast<const uint8_t*>(&order) + 4);
  ResealTrailingCrc(&bytes);
  WriteFile(store_dir + "/" + manifest, bytes);
  store::SegmentStoreOptions options;
  options.sync_writes = false;
  const auto store = store::SegmentStore::Open(store_dir, options);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
  EXPECT_NE(store.status().message().find("unsupported manifest version 1"),
            std::string::npos)
      << store.status().ToString();
}

}  // namespace
}  // namespace s3vcd
