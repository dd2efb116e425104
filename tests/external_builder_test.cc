#include "core/external_builder.h"

#include <cstdio>
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/pseudo_disk.h"
#include "core/synthetic_db.h"
#include "util/io.h"
#include "util/rng.h"

namespace s3vcd::core {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(ExternalBuilderTest, ProducesIdenticalFileToInMemoryBuild) {
  const std::string path = TempPath("external_equiv.s3db");
  const std::string reference_path = TempPath("external_equiv_ref.s3db");
  Rng rng(1);
  // Half uniform, half tight clusters around 16 centres: many records
  // share a code, and only arrival order decides their place.
  std::vector<fp::Fingerprint> centres;
  for (int c = 0; c < 16; ++c) {
    centres.push_back(UniformRandomFingerprint(&rng));
  }
  std::vector<FingerprintRecord> records;
  for (int i = 0; i < 9000; ++i) {
    FingerprintRecord r;
    r.descriptor =
        i % 2 == 0 ? UniformRandomFingerprint(&rng)
                   : DistortFingerprint(centres[i % 16], 3.0, &rng);
    r.id = static_cast<uint32_t>(i % 7);
    r.time_code = static_cast<uint32_t>(i);
    r.x = static_cast<float>(i % 31);
    r.y = static_cast<float>(i % 17);
    records.push_back(r);
  }

  ExternalBuilderOptions options;
  options.max_records_in_memory = 1000;  // force ~9 runs
  options.temp_dir = testing::TempDir();
  ExternalDatabaseBuilder external(path, options);
  DatabaseBuilder reference;
  for (const auto& r : records) {
    ASSERT_TRUE(external.Add(r.descriptor, r.id, r.time_code, r.x, r.y).ok());
    reference.Add(r.descriptor, r.id, r.time_code, r.x, r.y);
  }
  EXPECT_GE(external.runs_spilled(), 8u);
  ASSERT_TRUE(external.Finish().ok());
  const FingerprintDatabase expected = reference.Build();
  ASSERT_TRUE(expected.SaveToFile(reference_path).ok());

  const auto bytes = ReadFileBytes(path);
  const auto reference_bytes = ReadFileBytes(reference_path);
  ASSERT_TRUE(bytes.ok() && reference_bytes.ok());
  EXPECT_TRUE(*bytes == *reference_bytes)
      << "the external build must write the in-memory build's file";
  // The ties are real: consecutive records share codes.
  size_t ties = 0;
  for (size_t i = 1; i < expected.size(); ++i) {
    ties += expected.codes()[i] == expected.codes()[i - 1] ? 1 : 0;
  }
  EXPECT_GT(ties, expected.size() / 4);
  std::remove(path.c_str());
  std::remove(reference_path.c_str());
}

TEST(ExternalBuilderTest, QueriesOverExternalBuildMatchInMemory) {
  const std::string path = TempPath("external_query.s3db");
  Rng rng(2);
  ExternalBuilderOptions options;
  options.max_records_in_memory = 500;
  options.temp_dir = testing::TempDir();
  ExternalDatabaseBuilder external(path, options);
  DatabaseBuilder reference;
  std::vector<fp::Fingerprint> sample;
  for (int i = 0; i < 6000; ++i) {
    const fp::Fingerprint f = UniformRandomFingerprint(&rng);
    ASSERT_TRUE(external.Add(f, 1, static_cast<uint32_t>(i)).ok());
    reference.Add(f, 1, static_cast<uint32_t>(i));
    if (i % 131 == 0) {
      sample.push_back(f);
    }
  }
  ASSERT_TRUE(external.Finish().ok());
  auto loaded = FingerprintDatabase::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  const S3Index from_disk(std::move(*loaded));
  const S3Index in_memory(reference.Build());
  for (const auto& target : sample) {
    const fp::Fingerprint q = DistortFingerprint(target, 15.0, &rng);
    const auto a = from_disk.RangeQuery(q, 90.0, 12);
    const auto b = in_memory.RangeQuery(q, 90.0, 12);
    std::multiset<uint32_t> sa;
    std::multiset<uint32_t> sb;
    for (const auto& m : a.matches) {
      sa.insert(m.time_code);
    }
    for (const auto& m : b.matches) {
      sb.insert(m.time_code);
    }
    EXPECT_EQ(sa, sb);
  }
  std::remove(path.c_str());
}

TEST(ExternalBuilderTest, ServesPseudoDiskDirectly) {
  const std::string path = TempPath("external_disk.s3db");
  Rng rng(3);
  ExternalBuilderOptions options;
  options.max_records_in_memory = 700;
  options.temp_dir = testing::TempDir();
  ExternalDatabaseBuilder external(path, options);
  for (int i = 0; i < 4000; ++i) {
    ASSERT_TRUE(external
                    .Add(UniformRandomFingerprint(&rng), 2,
                         static_cast<uint32_t>(i))
                    .ok());
  }
  ASSERT_TRUE(external.Finish().ok());

  PseudoDiskOptions disk;
  disk.section_depth = 2;
  disk.query_depth = 10;
  auto searcher = PseudoDiskSearcher::Open(path, disk);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  EXPECT_EQ(searcher->num_records(), 4000u);
  const GaussianDistortionModel model(15.0);
  std::vector<std::vector<Match>> results;
  PseudoDiskBatchStats stats;
  ASSERT_TRUE(searcher
                  ->SearchBatch({UniformRandomFingerprint(&rng)}, model,
                                &results, &stats)
                  .ok());
  std::remove(path.c_str());
}

TEST(ExternalBuilderTest, NoSpillPathWorks) {
  const std::string path = TempPath("external_nospill.s3db");
  Rng rng(4);
  ExternalBuilderOptions options;
  options.max_records_in_memory = 1 << 20;  // never spill
  options.temp_dir = testing::TempDir();
  ExternalDatabaseBuilder external(path, options);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(external
                    .Add(UniformRandomFingerprint(&rng), 0,
                         static_cast<uint32_t>(i))
                    .ok());
  }
  EXPECT_EQ(external.runs_spilled(), 0u);
  ASSERT_TRUE(external.Finish().ok());
  auto loaded = FingerprintDatabase::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 300u);
  std::remove(path.c_str());
}

TEST(ExternalBuilderTest, EmptyBuildProducesValidEmptyFile) {
  const std::string path = TempPath("external_empty.s3db");
  ExternalDatabaseBuilder external(path, {});
  ASSERT_TRUE(external.Finish().ok());
  auto loaded = FingerprintDatabase::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
  std::remove(path.c_str());
}

TEST(ExternalBuilderTest, FinishTwiceIsAnError) {
  const std::string path = TempPath("external_twice.s3db");
  ExternalDatabaseBuilder external(path, {});
  ASSERT_TRUE(external.Finish().ok());
  EXPECT_EQ(external.Finish().code(), StatusCode::kFailedPrecondition);
  Rng rng(5);
  EXPECT_EQ(external.Add(UniformRandomFingerprint(&rng), 0, 0).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ExternalBuilderTest, UnwritableOutputIsIOError) {
  ExternalDatabaseBuilder external("/nonexistent_dir/out.s3db", {});
  EXPECT_EQ(external.Finish().code(), StatusCode::kIOError);
}

// Injected failure: runs have been spilled when Finish hits an error (the
// output is unwritable). The error path must still remove every temp run
// — a builder that errors out cannot leak run files into temp_dir.
TEST(ExternalBuilderTest, FailedFinishRemovesTempRuns) {
  namespace fs = std::filesystem;
  const fs::path temp_dir =
      fs::path(testing::TempDir()) / "external_failcleanup";
  fs::remove_all(temp_dir);
  ASSERT_TRUE(fs::create_directories(temp_dir));

  ExternalBuilderOptions options;
  options.max_records_in_memory = 100;
  options.temp_dir = temp_dir.string();
  ExternalDatabaseBuilder external("/nonexistent_dir/out.s3db", options);
  Rng rng(6);
  for (int i = 0; i < 450; ++i) {
    ASSERT_TRUE(external
                    .Add(UniformRandomFingerprint(&rng), 0,
                         static_cast<uint32_t>(i))
                    .ok());
  }
  ASSERT_GE(external.runs_spilled(), 4u);
  EXPECT_EQ(external.Finish().code(), StatusCode::kIOError);

  size_t leftover_runs = 0;
  for (const auto& entry : fs::directory_iterator(temp_dir)) {
    if (entry.path().filename().string().rfind("s3vcd_run_", 0) == 0) {
      ++leftover_runs;
    }
  }
  EXPECT_EQ(leftover_runs, 0u) << "failed Finish leaked temp run files";
  fs::remove_all(temp_dir);
}

// Same audit one failure later: the output opens fine but a run file has
// been corrupted, so the merge itself fails. Temp runs must still be
// cleaned up and the partial output removed.
TEST(ExternalBuilderTest, FailedMergeRemovesRunsAndPartialOutput) {
  namespace fs = std::filesystem;
  const fs::path temp_dir =
      fs::path(testing::TempDir()) / "external_failmerge";
  fs::remove_all(temp_dir);
  ASSERT_TRUE(fs::create_directories(temp_dir));
  const std::string path = TempPath("external_failmerge.s3db");

  ExternalBuilderOptions options;
  options.max_records_in_memory = 100;
  options.temp_dir = temp_dir.string();
  ExternalDatabaseBuilder external(path, options);
  Rng rng(7);
  for (int i = 0; i < 350; ++i) {
    ASSERT_TRUE(external
                    .Add(UniformRandomFingerprint(&rng), 0,
                         static_cast<uint32_t>(i))
                    .ok());
  }
  ASSERT_GE(external.runs_spilled(), 3u);
  // Truncate one run so its reader fails mid-merge.
  for (const auto& entry : fs::directory_iterator(temp_dir)) {
    if (entry.path().filename().string().rfind("s3vcd_run_", 0) == 0) {
      fs::resize_file(entry.path(), 16);
      break;
    }
  }
  EXPECT_FALSE(external.Finish().ok());

  size_t leftover_runs = 0;
  for (const auto& entry : fs::directory_iterator(temp_dir)) {
    if (entry.path().filename().string().rfind("s3vcd_run_", 0) == 0) {
      ++leftover_runs;
    }
  }
  EXPECT_EQ(leftover_runs, 0u) << "failed merge leaked temp run files";
  EXPECT_FALSE(fs::exists(path)) << "failed merge left a partial output";
  fs::remove_all(temp_dir);
}

}  // namespace
}  // namespace s3vcd::core
