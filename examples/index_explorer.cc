// Index explorer: the search layer on its own, without the video pipeline.
// Shows how statistical queries trade quality for time against exact range
// queries and the sequential scan; demonstrates saving the database to a
// file and batch-searching it with the pseudo-disk strategy.
//
// Build & run:  ./build/examples/index_explorer

#include <cstdio>

#include "core/database.h"
#include "core/distortion_model.h"
#include "core/index.h"
#include "core/pseudo_disk.h"
#include "core/synthetic_db.h"
#include "core/tuner.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/table.h"

using namespace s3vcd;

int main() {
  // A clustered synthetic database of 300k fingerprints.
  Rng rng(3);
  core::DatabaseBuilder builder;
  std::vector<fp::Fingerprint> centers;
  for (int c = 0; c < 80; ++c) {
    centers.push_back(core::UniformRandomFingerprint(&rng));
  }
  for (int i = 0; i < 300000; ++i) {
    builder.Add(core::DistortFingerprint(
                    centers[static_cast<size_t>(rng.UniformInt(0, 79))],
                    25.0, &rng),
                static_cast<uint32_t>(i % 200), static_cast<uint32_t>(i));
  }
  const core::S3Index index(builder.Build());
  std::printf("database: %zu fingerprints, %.1f MiB in memory\n",
              index.database().size(),
              index.database().MemoryBytes() / 1048576.0);

  // Distorted queries around known database points.
  const double sigma = 18.0;
  const core::GaussianDistortionModel model(sigma);
  std::vector<fp::Fingerprint> queries;
  for (int i = 0; i < 200; ++i) {
    const auto& rec = index.database().record(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(index.database().size()) - 1)));
    queries.push_back(core::DistortFingerprint(rec.descriptor, sigma, &rng));
  }

  // Learn the best partition depth (Section IV-A).
  const auto tuned = core::TuneDepth(
      index, model, {queries.begin(), queries.begin() + 30}, 0.8,
      core::DefaultDepthCandidates(index.database().size()));
  std::printf("tuned partition depth p_min = %d\n", tuned.best_depth);

  // Compare the three search strategies at equal expectation.
  const ChiNormDistribution chi(fp::kDims, sigma);
  Table table({"strategy", "avg_ms", "avg_results", "records_scanned"});
  {
    core::QueryOptions options;
    options.filter.alpha = 0.8;
    options.filter.depth = tuned.best_depth;
    double ms = 0;
    double results = 0;
    double scanned = 0;
    for (const auto& q : queries) {
      const auto r = index.StatQuery(q, model, options);
      ms += (r.stats.selection_ns + r.stats.refine_ns) * 1e-6;
      results += r.matches.size();
      scanned += r.stats.records_scanned;
    }
    table.AddRow()
        .Add("statistical (alpha=0.8)")
        .Add(ms / queries.size(), 3)
        .Add(results / queries.size(), 4)
        .Add(scanned / queries.size(), 4);
  }
  {
    const double epsilon = chi.Quantile(0.8);
    double ms = 0;
    double results = 0;
    double scanned = 0;
    for (const auto& q : queries) {
      const auto r = index.RangeQuery(q, epsilon, tuned.best_depth);
      ms += (r.stats.selection_ns + r.stats.refine_ns) * 1e-6;
      results += r.matches.size();
      scanned += r.stats.records_scanned;
    }
    table.AddRow()
        .Add("exact range (same expectation)")
        .Add(ms / queries.size(), 3)
        .Add(results / queries.size(), 4)
        .Add(scanned / queries.size(), 4);
  }
  {
    const double epsilon = chi.Quantile(0.8);
    double ms = 0;
    double results = 0;
    for (int i = 0; i < 20; ++i) {
      const auto r =
          core::SequentialScan(index.database(), queries[i], epsilon);
      ms += r.stats.refine_ns * 1e-6;
      results += r.matches.size();
    }
    table.AddRow()
        .Add("sequential scan")
        .Add(ms / 20, 3)
        .Add(results / 20, 4)
        .Add(static_cast<double>(index.database().size()), 4);
  }
  table.Print("index_explorer");

  // Persist and batch-search through the pseudo-disk strategy.
  const std::string path = "/tmp/s3vcd_example.s3db";
  if (!index.database().SaveToFile(path).ok()) {
    std::printf("failed to save database\n");
    return 1;
  }
  core::PseudoDiskOptions disk_options;
  disk_options.section_depth = 3;
  disk_options.query_depth = 14;
  disk_options.alpha = 0.8;
  auto searcher = core::PseudoDiskSearcher::Open(path, disk_options);
  if (!searcher.ok()) {
    std::printf("pseudo-disk open failed: %s\n",
                searcher.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<core::Match>> results;
  core::PseudoDiskBatchStats stats;
  if (!searcher->SearchBatch(queries, model, &results, &stats).ok()) {
    std::printf("pseudo-disk batch failed\n");
    return 1;
  }
  std::printf(
      "pseudo-disk batch of %zu queries: %.2f ms/query total "
      "(filter %.2f + load %.2f + refine %.2f), %llu sections loaded\n",
      queries.size(), stats.AverageTotalMillis(),
      stats.filter_seconds * 1e3 / queries.size(),
      stats.load_seconds * 1e3 / queries.size(),
      stats.refine_seconds * 1e3 / queries.size(),
      static_cast<unsigned long long>(stats.sections_loaded));
  std::remove(path.c_str());
  return 0;
}
