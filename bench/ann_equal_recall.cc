// Equal-recall comparison of the vamana graph backend against the exact
// S3 range query: on the same 200k-record clustered corpus and the same
// distorted query stream, the beam width is swept upward until the graph
// search matches each target recall (0.95 / 0.99 / 1.0) of the exact
// eps=90 match set, and each operating point is reported with its recall,
// per-query latency and throughput next to the exact baseline's — the
// honest form of an ANN claim (a fast graph at recall 0.6 is not a
// result). The p-stable LSH baseline runs over the same corpus, queries and eps on a
// small grid of (tables, hashes per table, bucket width); its operating
// point for a target recall is the fastest grid point that meets it.
//
// tools/run_benchmarks.sh invokes this with --out BENCH_ann.json and adds
// its host fingerprint to the "host" block; the scan kernel recorded there
// is the one the library dispatches to (core::ActiveScanKernelName()).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "core/database.h"
#include "core/index.h"
#include "core/lsh.h"
#include "core/scan_kernel.h"
#include "core/synthetic_db.h"
#include "core/vamana.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace s3vcd::bench {
namespace {

constexpr double kEpsilon = 90.0;
constexpr int kS3Depth = 12;
constexpr double kQuerySigma = 18.0;

// The swept beam widths, ascending; the sweep stops early once recall
// hits 1.0 (wider beams only get slower).
constexpr int kBeams[] = {4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512};
constexpr double kRecallTargets[] = {0.95, 0.99, 1.0};

struct SweepRow {
  int beam = 0;
  double recall = 0;
  double mean_latency_us = 0;
  double qps = 0;
  double mean_nodes_visited = 0;
  double mean_records_scanned = 0;
};

// The LSH grid: (tables, hashes per table) pairs, each at bucket widths
// that are multiples of eps.
constexpr int kLshShapes[][2] = {{8, 4}, {16, 4}, {16, 6}, {32, 8}};
constexpr double kLshWidths[] = {2.0, 3.0, 4.0, 6.0};

struct LshRow {
  int tables = 0;
  int hashes = 0;
  double bucket_width = 0;
  double build_seconds = 0;
  double recall = 0;
  double mean_latency_us = 0;
  double qps = 0;
  double mean_records_scanned = 0;
};

struct VamanaRun {
  double build_seconds = 0;
  uint64_t graph_bytes = 0;
  std::vector<SweepRow> sweep;
};

uint64_t TruthKey(uint32_t id, uint32_t time_code) {
  return (static_cast<uint64_t>(id) << 32) | time_code;
}

int Main(int argc, char** argv) {
  uint64_t num_records = Scaled(200000);
  int num_queries = 256;
  int graph_degree = 32;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = value();
    } else if (arg == "--records") {
      num_records = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--queries") {
      num_queries = std::atoi(value());
    } else if (arg == "--graph-degree") {
      graph_degree = std::atoi(value());
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (known: --out --records --queries "
                   "--graph-degree)\n",
                   arg.c_str());
      return 2;
    }
  }

  PrintHeader("ann_equal_recall",
              "vamana graph search and LSH vs exact S3 range query at equal "
              "recall");

  // The clustered corpus of the micro benchmarks (64 Gaussian clusters,
  // sigma 25), so the BENCH_ann numbers are comparable with BENCH_scan's
  // sweep throughput over the same distribution.
  Rng rng(5);
  std::vector<fp::Fingerprint> centers;
  for (int c = 0; c < 64; ++c) {
    centers.push_back(core::UniformRandomFingerprint(&rng));
  }
  std::vector<core::FingerprintRecord> records(num_records);
  for (uint64_t i = 0; i < num_records; ++i) {
    records[i].descriptor = core::DistortFingerprint(
        centers[static_cast<size_t>(rng.UniformInt(0, 63))], 25.0, &rng);
    records[i].id = static_cast<uint32_t>(i % 100);
    records[i].time_code = static_cast<uint32_t>(i);
  }

  core::DatabaseBuilder builder;
  for (const auto& r : records) {
    builder.Add(r.descriptor, r.id, r.time_code);
  }
  Stopwatch watch;
  const core::S3Index s3(builder.Build());
  std::printf("corpus: %llu records, S3 index built in %.1f ms\n",
              static_cast<unsigned long long>(num_records),
              watch.ElapsedMillis());

  Rng query_rng(12);
  std::vector<fp::Fingerprint> queries;
  for (int q = 0; q < num_queries; ++q) {
    const auto& rec = s3.database().record(static_cast<size_t>(
        query_rng.UniformInt(0, static_cast<int64_t>(num_records) - 1)));
    queries.push_back(
        core::DistortFingerprint(rec.descriptor, kQuerySigma, &query_rng));
  }

  // Exact ground truth and the exact baseline's latency come from the
  // same timed S3 run (the geometric range filter misses nothing inside
  // the ball, so its match set is the truth set).
  std::vector<std::unordered_set<uint64_t>> truth(queries.size());
  uint64_t truth_pairs = 0;
  watch.Reset();
  for (size_t q = 0; q < queries.size(); ++q) {
    const core::QueryResult r = s3.RangeQuery(queries[q], kEpsilon, kS3Depth);
    for (const auto& m : r.matches) {
      truth[q].insert(TruthKey(m.id, m.time_code));
    }
    truth_pairs += truth[q].size();
  }
  const double s3_total_ms = watch.ElapsedMillis();
  const double s3_latency_us = s3_total_ms * 1e3 / queries.size();
  std::printf(
      "exact baseline (s3 range, eps=%.0f, depth=%d): %.1f us/query, "
      "%.0f truth pairs over %zu queries\n",
      kEpsilon, kS3Depth, s3_latency_us, static_cast<double>(truth_pairs),
      queries.size());
  if (truth_pairs == 0) {
    std::fprintf(stderr, "no truth pairs — corpus/query mismatch\n");
    return 1;
  }

  VamanaRun run;
  {
    core::VamanaOptions options;
    options.graph_degree = graph_degree;
    watch.Reset();
    const core::VamanaIndex vamana(records, options);
    run.build_seconds = watch.ElapsedMillis() / 1e3;
    run.graph_bytes =
        static_cast<uint64_t>(vamana.degree_bound()) * num_records * 4;
    std::printf("vamana: degree %u built in %.2f s (%.1f MiB total)\n",
                vamana.degree_bound(), run.build_seconds,
                vamana.ApproxBytes() / 1048576.0);

    for (const int beam : kBeams) {
      SweepRow row;
      row.beam = beam;
      uint64_t recovered = 0;
      uint64_t nodes = 0;
      uint64_t scanned = 0;
      watch.Reset();
      for (size_t q = 0; q < queries.size(); ++q) {
        const core::QueryResult r =
            vamana.RangeQueryWithBeam(queries[q], kEpsilon, beam);
        for (const auto& m : r.matches) {
          recovered += truth[q].count(TruthKey(m.id, m.time_code));
        }
        nodes += r.stats.nodes_visited;
        scanned += r.stats.records_scanned;
      }
      const double total_ms = watch.ElapsedMillis();
      row.recall = static_cast<double>(recovered) / truth_pairs;
      row.mean_latency_us = total_ms * 1e3 / queries.size();
      row.qps = queries.size() / (total_ms / 1e3);
      row.mean_nodes_visited = static_cast<double>(nodes) / queries.size();
      row.mean_records_scanned =
          static_cast<double>(scanned) / queries.size();
      run.sweep.push_back(row);
      if (row.recall >= 1.0) break;  // wider beams only get slower
    }
  }

  std::vector<LshRow> lsh_rows;
  for (const auto& shape : kLshShapes) {
    for (const double width : kLshWidths) {
      LshRow row;
      row.tables = shape[0];
      row.hashes = shape[1];
      row.bucket_width = width * kEpsilon;
      core::LshOptions options;
      options.num_tables = row.tables;
      options.hashes_per_table = row.hashes;
      options.bucket_width = row.bucket_width;
      watch.Reset();
      const core::LshIndex lsh(records, options);
      row.build_seconds = watch.ElapsedMillis() / 1e3;
      uint64_t recovered = 0;
      uint64_t scanned = 0;
      watch.Reset();
      for (size_t q = 0; q < queries.size(); ++q) {
        const core::QueryResult r = lsh.RangeQuery(queries[q], kEpsilon);
        for (const auto& m : r.matches) {
          recovered += truth[q].count(TruthKey(m.id, m.time_code));
        }
        scanned += r.stats.records_scanned;
      }
      const double total_ms = watch.ElapsedMillis();
      row.recall = static_cast<double>(recovered) / truth_pairs;
      row.mean_latency_us = total_ms * 1e3 / queries.size();
      row.qps = queries.size() / (total_ms / 1e3);
      row.mean_records_scanned =
          static_cast<double>(scanned) / queries.size();
      lsh_rows.push_back(row);
    }
  }
  // The fastest LSH grid point meeting `target`, or null.
  const auto lsh_point = [&](double target) -> const LshRow* {
    const LshRow* best = nullptr;
    for (const auto& row : lsh_rows) {
      if (row.recall >= target &&
          (best == nullptr || row.mean_latency_us < best->mean_latency_us)) {
        best = &row;
      }
    }
    return best;
  };

  // The first (narrowest) swept beam meeting `target`, or null.
  const auto vamana_point = [&](double target) -> const SweepRow* {
    for (const auto& row : run.sweep) {
      if (row.recall >= target) {
        return &row;
      }
    }
    return nullptr;
  };

  // Operating points: the first (narrowest) swept beam meeting each
  // target recall — the number an equal-recall comparison is allowed to
  // quote — and the fastest LSH grid point meeting it. `setting` is the
  // beam width, or tables x hashes / bucket width for LSH.
  Table table({"method", "target", "setting", "recall", "latency_us", "qps",
               "speedup_vs_s3"});
  for (const double target : kRecallTargets) {
    const SweepRow* point = vamana_point(target);
    if (point == nullptr) {
      table.AddRow().Add("vamana").Add(target, 2).Add("-").Add("-").Add(
          "-").Add("-").Add("-");
      continue;
    }
    table.AddRow()
        .Add("vamana")
        .Add(target, 2)
        .Add(point->beam)
        .Add(point->recall, 4)
        .Add(point->mean_latency_us, 1)
        .Add(point->qps, 0)
        .Add(s3_latency_us / point->mean_latency_us, 2);
  }
  for (const double target : kRecallTargets) {
    const LshRow* point = lsh_point(target);
    if (point == nullptr) {
      table.AddRow().Add("lsh").Add(target, 2).Add("-").Add("-").Add(
          "-").Add("-").Add("-");
      continue;
    }
    table.AddRow()
        .Add("lsh")
        .Add(target, 2)
        .Add(std::to_string(point->tables) + "x" +
             std::to_string(point->hashes) + "/" +
             std::to_string(static_cast<int>(point->bucket_width)))
        .Add(point->recall, 4)
        .Add(point->mean_latency_us, 1)
        .Add(point->qps, 0)
        .Add(s3_latency_us / point->mean_latency_us, 2);
  }
  table.Print("ann_equal_recall");

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to open %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"ann_equal_recall\",\n");
    std::fprintf(
        f,
        "  \"description\": \"vamana graph search and p-stable LSH vs exact "
        "S3 range query (eps=%.0f, depth=%d) on a %llu-record clustered "
        "corpus, %zu distorted queries (sigma %.0f); beam width swept until "
        "the graph matches each target recall of the exact match set, LSH "
        "over a grid of (tables, hashes, bucket width); latency is mean per "
        "query, single-threaded\",\n",
        kEpsilon, kS3Depth, static_cast<unsigned long long>(num_records),
        queries.size(), kQuerySigma);
    std::fprintf(f, "  \"records\": %llu,\n",
                 static_cast<unsigned long long>(num_records));
    std::fprintf(f, "  \"queries\": %zu,\n", queries.size());
    std::fprintf(f, "  \"epsilon\": %.1f,\n", kEpsilon);
    std::fprintf(f, "  \"graph_degree\": %d,\n", graph_degree);
    std::fprintf(f, "  \"truth_pairs\": %llu,\n",
                 static_cast<unsigned long long>(truth_pairs));
    std::fprintf(f, "  \"host\": {\n");
    std::fprintf(f, "    \"selected_scan_kernel\": \"%s\"\n",
                 core::ActiveScanKernelName());
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"exact_baseline\": {\n");
    std::fprintf(f, "    \"backend\": \"s3\",\n");
    std::fprintf(f, "    \"mean_latency_us\": %.3f\n", s3_latency_us);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"vamana\": {\n");
    std::fprintf(f, "    \"bytes_per_record\": %d,\n", fp::kDims);
    std::fprintf(f, "    \"build_seconds\": %.3f,\n", run.build_seconds);
    std::fprintf(f, "    \"graph_bytes\": %llu,\n",
                 static_cast<unsigned long long>(run.graph_bytes));
    std::fprintf(f, "    \"sweep\": [\n");
    for (size_t i = 0; i < run.sweep.size(); ++i) {
      const SweepRow& row = run.sweep[i];
      std::fprintf(f,
                   "      {\"beam\": %d, \"recall\": %.4f, "
                   "\"mean_latency_us\": %.3f, \"qps\": %.1f, "
                   "\"mean_nodes_visited\": %.1f, "
                   "\"mean_records_scanned\": %.1f}%s\n",
                   row.beam, row.recall, row.mean_latency_us, row.qps,
                   row.mean_nodes_visited, row.mean_records_scanned,
                   i + 1 < run.sweep.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"operating_points\": [\n");
    for (size_t t = 0; t < std::size(kRecallTargets); ++t) {
      const double target = kRecallTargets[t];
      const SweepRow* point = vamana_point(target);
      if (point == nullptr) {
        std::fprintf(f, "      {\"target_recall\": %.2f, \"met\": false}",
                     target);
      } else {
        std::fprintf(
            f,
            "      {\"target_recall\": %.2f, \"met\": true, "
            "\"beam\": %d, \"recall\": %.4f, \"mean_latency_us\": %.3f, "
            "\"qps\": %.1f, \"speedup_vs_exact\": %.2f}",
            target, point->beam, point->recall, point->mean_latency_us,
            point->qps, s3_latency_us / point->mean_latency_us);
      }
      std::fprintf(f, "%s\n", t + 1 < std::size(kRecallTargets) ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"lsh\": {\n");
    std::fprintf(f, "    \"sweep\": [\n");
    for (size_t i = 0; i < lsh_rows.size(); ++i) {
      const LshRow& row = lsh_rows[i];
      std::fprintf(f,
                   "      {\"tables\": %d, \"hashes_per_table\": %d, "
                   "\"bucket_width\": %.1f, \"build_seconds\": %.3f, "
                   "\"recall\": %.4f, \"mean_latency_us\": %.3f, "
                   "\"qps\": %.1f, \"mean_records_scanned\": %.1f}%s\n",
                   row.tables, row.hashes, row.bucket_width,
                   row.build_seconds, row.recall, row.mean_latency_us,
                   row.qps, row.mean_records_scanned,
                   i + 1 < lsh_rows.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"operating_points\": [\n");
    for (size_t t = 0; t < std::size(kRecallTargets); ++t) {
      const double target = kRecallTargets[t];
      const LshRow* point = lsh_point(target);
      if (point == nullptr) {
        std::fprintf(f, "      {\"target_recall\": %.2f, \"met\": false}",
                     target);
      } else {
        std::fprintf(
            f,
            "      {\"target_recall\": %.2f, \"met\": true, "
            "\"tables\": %d, \"hashes_per_table\": %d, "
            "\"bucket_width\": %.1f, \"recall\": %.4f, "
            "\"mean_latency_us\": %.3f, \"qps\": %.1f, "
            "\"speedup_vs_exact\": %.2f}",
            target, point->tables, point->hashes, point->bucket_width,
            point->recall, point->mean_latency_us, point->qps,
            s3_latency_us / point->mean_latency_us);
      }
      std::fprintf(f, "%s\n", t + 1 < std::size(kRecallTargets) ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace s3vcd::bench

int main(int argc, char** argv) { return s3vcd::bench::Main(argc, argv); }
