// s3vcd_tool — operational command line for the S3VCD system.
//
//   s3vcd_tool build       --output DB [--videos N] [--frames F]
//                          [--distractors M] [--seed S]
//                          [--memory-records N] [--external]
//   s3vcd_tool inspect     --db DB
//   s3vcd_tool verify      --db DB
//   s3vcd_tool query       --db DB [--backend NAME] [--alpha A] [--sigma S]
//                          [--depth P] [--count N] [--seed S]
//                          [--pseudo-disk R] [--store-dir DIR]
//                          [--metrics-out FILE] [--trace-out FILE]
//   s3vcd_tool compact     --store-dir DIR
//   s3vcd_tool monitor     --db DB [--backend NAME] [--stream-frames F]
//                          [--alpha A] [--sigma S] [--threshold T] [--seed S]
//                          [--metrics-out FILE] [--trace-out FILE]
//
// `build` synthesizes a reference corpus (the library normally ingests real
// video; the tool uses the synthetic generator so it is runnable anywhere),
// `query` replays distorted self-queries with timing, and `monitor` embeds a
// copy of one reference video in a synthetic stream and watches it.
//
// Flags accept both `--flag value` and `--flag=value`; unknown flags, and
// numeric flags whose value is not a whole finite number (or is negative
// where the command needs a count), are rejected with the command's flag
// table and exit code 2 (run a command with no flags, or see README.md,
// for the full table). `--backend NAME` selects the search
// structure through store::MakeSearcher ("s3", "segment", "seqscan",
// "vamana"); an unknown name is rejected with that list before any
// database is loaded. The "segment" backend serves from a
// persistent on-disk segment store: `query --backend segment --store-dir D`
// ingests the database into D on first use and reopens D from its manifest
// on every later run (the .s3db is then only the query-sampling corpus);
// `compact --store-dir D` runs the store's tiered compaction to a steady
// state. See docs/segment_format.md. On query/monitor,
// `--metrics-out FILE` dumps a JSON snapshot of the global metrics registry
// covering the run and `--trace-out FILE` records Chrome trace-event JSON
// (load it in chrome://tracing). `--pseudo-disk R` (R in [0, 20])
// additionally replays the query batch through the file-based
// PseudoDiskSearcher with 2^R curve sections, so the emitted metrics and trace cover the pseudo-disk I/O
// path too. See docs/observability.md.

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "cbcd/detector.h"
#include "core/database.h"
#include "core/distortion_model.h"
#include "core/external_builder.h"
#include "core/index.h"
#include "core/pseudo_disk.h"
#include "core/searcher.h"
#include "core/sorted_run.h"
#include "core/synthetic_db.h"
#include "core/tuner.h"
#include "fingerprint/extractor.h"
#include "fingerprint/fingerprint.h"
#include "media/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/make_searcher.h"
#include "store/segment_store.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/timer.h"

namespace s3vcd::tool {
namespace {

// Strict number parsing: the whole value must be consumed, and a real must
// be finite. (atoll/atof read "abc" as 0, and "-1" cast to size_t wraps to
// 2^64 - 1.)
bool ParseInt(const std::string& text, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || errno != 0 || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

bool ParseReal(const std::string& text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || errno != 0 || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

// Minimal flag parser; flags may appear in any order and accept both
// `--flag value` and `--flag=value` spellings.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        bad_ = argv[i];
        return;
      }
      const char* body = argv[i] + 2;
      if (const char* eq = std::strchr(body, '=')) {
        values_[std::string(body, static_cast<size_t>(eq - body))] = eq + 1;
        continue;
      }
      if (i + 1 >= argc) {
        bad_ = argv[i];
        return;
      }
      values_[body] = argv[++i];
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  // Numeric values were checked against the command's flag table
  // (RejectBadFlags) before the command ran.
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    double value = fallback;
    if (it != values_.end()) {
      ParseReal(it->second, &value);
    }
    return value;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const auto it = values_.find(key);
    int64_t value = fallback;
    if (it != values_.end()) {
      ParseInt(it->second, &value);
    }
    return value;
  }
  const char* bad() const { return bad_; }
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
  const char* bad_ = nullptr;
  int consumed_ = 0;
};

// What a flag's value must parse as.
enum class FlagType {
  kText,
  kInt,          ///< an integer
  kCount,        ///< an integer >= 0; the command casts it to an unsigned type
  kTunedDepth,   ///< a partition depth in [1, D], or 0 to auto-tune it
  kSectionDepth, ///< a pseudo-disk section depth, an integer in [0, D]
  kPositive,     ///< a finite number > 0
  kProbability,  ///< a number in (0, 1)
};

// The flag table of one command; the single source of truth for usage
// output, unknown-flag rejection and number validation (mirrored in
// README.md).
struct FlagSpec {
  const char* name;
  const char* help;
  FlagType type = FlagType::kText;
};

struct CommandSpec {
  const char* name;
  const char* summary;
  std::vector<FlagSpec> flags;
};

const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec>* commands = new std::vector<
      CommandSpec>{
      {"build",
       "synthesize a reference corpus and write a .s3db database",
       {{"output", "output database path (required)"},
        {"videos", "number of reference videos (default 4)", FlagType::kInt},
        {"frames", "frames per reference video (default 200)", FlagType::kInt},
        {"distractors", "padding fingerprints (default 100000)",
         FlagType::kCount},
        {"seed", "deterministic seed (default 1)", FlagType::kCount},
        {"memory-records", "external build memory bound (default 1048576)",
         FlagType::kCount},
        {"external", "trailing switch: bounded-memory external build"}}},
      {"inspect",
       "print sizes, ids and curve-section occupancy of a database",
       {{"db", "database path (required)"}}},
      {"verify",
       "check the database checksum and Hilbert ordering",
       {{"db", "database path (required)"}}},
      {"query",
       "replay distorted self-queries with timing and metrics",
       {{"db", "database path (required)"},
        {"backend", "searcher backend (default s3)"},
        {"alpha", "statistical expectation (default 0.8)",
         FlagType::kProbability},
        {"sigma", "distortion model sigma (default 15)", FlagType::kPositive},
        {"depth", "partition depth p in [1, 20]; 0 = auto-tune (default 0)",
         FlagType::kTunedDepth},
        {"count", "number of queries (default 100)", FlagType::kInt},
        {"seed", "deterministic seed (default 99)", FlagType::kCount},
        {"pseudo-disk", "also replay via pseudo-disk with 2^R sections, "
                        "R in [0, 20]", FlagType::kSectionDepth},
        {"store-dir", "segment backend: persistent store directory"},
        {"graph-degree", "vamana backend: graph out-degree bound R "
                         "(default 32)", FlagType::kInt},
        {"beam-width", "vamana backend: query beam width L (default 64)",
         FlagType::kInt},
        {"metrics-out", "write a metrics JSON snapshot to FILE"},
        {"trace-out", "write Chrome trace-event JSON to FILE"}}},
      {"compact",
       "compact a persistent segment store to a steady state",
       {{"store-dir", "segment store directory (required)"}}},
      {"monitor",
       "watch a synthetic stream with an embedded copy",
       {{"db", "database path (required)"},
        {"backend", "searcher backend (default s3)"},
        {"alpha", "statistical expectation (default 0.8)",
         FlagType::kProbability},
        {"sigma", "distortion model sigma (default 12)", FlagType::kPositive},
        {"stream-frames", "filler frames before/after the copy (default 150)",
         FlagType::kInt},
        {"threshold", "nsim detection threshold (default 8)", FlagType::kInt},
        {"seed", "seed of the embedded reference video (default 1)",
         FlagType::kCount},
        {"metrics-out", "write a metrics JSON snapshot to FILE"},
        {"trace-out", "write Chrome trace-event JSON to FILE"}}},
  };
  return *commands;
}

const CommandSpec* FindCommand(const std::string& name) {
  for (const CommandSpec& command : Commands()) {
    if (name == command.name) {
      return &command;
    }
  }
  return nullptr;
}

void PrintCommandUsage(const CommandSpec& command) {
  std::fprintf(stderr, "usage: s3vcd_tool %s [--flag value | --flag=value]...\n",
               command.name);
  std::fprintf(stderr, "  %s\n", command.summary);
  for (const FlagSpec& flag : command.flags) {
    std::fprintf(stderr, "  --%-15s %s\n", flag.name, flag.help);
  }
}

// Rejects flags the command does not declare, and numeric flags whose
// value does not parse as the declared type or lies outside its range: a
// typo like --sigm, a --distractors of -1 silently turning into a wrapped
// unsigned, or an --alpha of 1.5 aborting deep inside the filter is
// exactly the failure mode an operational tool must not have.
bool RejectBadFlags(const CommandSpec& command, const Flags& flags) {
  bool ok = true;
  for (const auto& [name, value] : flags.values()) {
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& flag : command.flags) {
      if (name == flag.name) {
        spec = &flag;
      }
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown flag --%s for command %s\n",
                   name.c_str(), command.name);
      ok = false;
      continue;
    }
    const FlagType type = spec->type;
    const bool integral = type == FlagType::kInt || type == FlagType::kCount ||
                          type == FlagType::kTunedDepth ||
                          type == FlagType::kSectionDepth;
    const bool real = type == FlagType::kPositive ||
                      type == FlagType::kProbability;
    static_assert(fp::kDims == 20, "the depth messages below say 20");
    int64_t int_value = 0;
    double real_value = 0;
    const char* expected = nullptr;
    if (integral && !ParseInt(value, &int_value)) {
      expected = "an integer";
    } else if (real && !ParseReal(value, &real_value)) {
      expected = "a finite number";
    } else if (type == FlagType::kCount && int_value < 0) {
      expected = "an integer >= 0";
    } else if (type == FlagType::kTunedDepth &&
               (int_value < 0 || int_value > fp::kDims)) {
      expected = "0 (auto-tune) or an integer in [1, 20]";
    } else if (type == FlagType::kSectionDepth &&
               (int_value < 0 || int_value > fp::kDims)) {
      expected = "an integer in [0, 20]";
    } else if (type == FlagType::kPositive && !(real_value > 0)) {
      expected = "a number > 0";
    } else if (type == FlagType::kProbability &&
               !(real_value > 0 && real_value < 1)) {
      expected = "a number in (0, 1)";
    }
    if (expected != nullptr) {
      std::fprintf(stderr,
                   "bad value '%s' for flag --%s of command %s: expected "
                   "%s\n",
                   value.c_str(), name.c_str(), command.name, expected);
      ok = false;
    }
  }
  if (!ok) {
    PrintCommandUsage(command);
  }
  return ok;
}

// Validates a --backend value before any expensive work (a typo must not
// cost a database load); the rejection lists the served backends so the
// fix is obvious.
bool ValidateBackend(const std::string& command, const std::string& backend) {
  const Status status = store::CheckSearcherBackend(backend);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", command.c_str(),
                 status.message().c_str());
  }
  return status.ok();
}

// Maps the vamana graph knobs (--graph-degree, --beam-width) into a
// SearcherConfig; other backends ignore the fields.
void ApplyVamanaFlags(const Flags& flags, store::SearcherConfig* config) {
  config->vamana_graph_degree =
      static_cast<int>(flags.GetInt("graph-degree", 32));
  config->vamana_beam_width =
      static_cast<int>(flags.GetInt("beam-width", 64));
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return (std::fclose(f) == 0) && ok;
}

// --metrics-out / --trace-out plumbing shared by query and monitor.
// Begin() brackets the measured region: it zeroes the registry (so the
// snapshot covers exactly the command's work, not e.g. depth tuning) and
// turns tracing on when a trace file was requested. Finish() writes the
// requested files.
class ObsOutputs {
 public:
  explicit ObsOutputs(const Flags& flags)
      : metrics_path_(flags.Get("metrics-out", "")),
        trace_path_(flags.Get("trace-out", "")) {}

  void Begin() {
    obs::MetricsRegistry::Global().Reset();
    if (!trace_path_.empty()) {
      obs::TraceRecorder::Global().Clear();
      obs::TraceRecorder::Global().Enable();
    }
  }

  // Returns 0 on success, 1 if a requested file could not be written.
  int Finish() {
    int rc = 0;
    if (!metrics_path_.empty()) {
      const std::string json =
          obs::MetricsRegistry::Global().Snapshot().ToJson();
      if (WriteTextFile(metrics_path_, json)) {
        std::printf("wrote metrics JSON to %s\n", metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "failed to write metrics to %s\n",
                     metrics_path_.c_str());
        rc = 1;
      }
    }
    if (!trace_path_.empty()) {
      obs::TraceRecorder::Global().Disable();
      if (obs::TraceRecorder::Global().WriteChromeJsonFile(trace_path_)) {
        std::printf("wrote Chrome trace to %s (open in chrome://tracing)\n",
                    trace_path_.c_str());
      } else {
        std::fprintf(stderr, "failed to write trace to %s\n",
                     trace_path_.c_str());
        rc = 1;
      }
    }
    return rc;
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
};

media::VideoSequence Clip(uint64_t seed, int frames) {
  media::SyntheticVideoConfig config;
  config.width = 96;
  config.height = 80;
  config.num_frames = frames;
  config.seed = seed;
  return media::GenerateSyntheticVideo(config);
}

int CmdBuild(const Flags& flags, bool external) {
  const std::string output = flags.Get("output", "");
  if (output.empty()) {
    std::fprintf(stderr, "build: --output is required\n");
    return 2;
  }
  const int videos = static_cast<int>(flags.GetInt("videos", 4));
  const int frames = static_cast<int>(flags.GetInt("frames", 200));
  const uint64_t distractors =
      static_cast<uint64_t>(flags.GetInt("distractors", 100000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  Stopwatch watch;
  const fp::FingerprintExtractor extractor;
  std::vector<fp::Fingerprint> pool;
  Rng rng(seed);

  Status status = Status::OK();
  uint64_t total = 0;
  auto ingest = [&](auto& builder) -> Status {
    for (int v = 0; v < videos; ++v) {
      const auto fps = extractor.Extract(Clip(seed + v, frames));
      std::printf("video %d: %zu fingerprints\n", v, fps.size());
      for (const auto& lf : fps) {
        pool.push_back(lf.descriptor);
      }
      S3VCD_RETURN_IF_ERROR(
          builder.AddVideo(static_cast<uint32_t>(v), fps));
    }
    core::DistractorOptions options;
    for (uint64_t i = 0; i < distractors; ++i) {
      const fp::Fingerprint base =
          pool[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(pool.size()) - 1))];
      const fp::Fingerprint d =
          core::DistortFingerprint(base, options.jitter_sigma, &rng);
      S3VCD_RETURN_IF_ERROR(builder.Add(
          d,
          options.first_id +
              static_cast<uint32_t>(i / options.fingerprints_per_video),
          static_cast<uint32_t>(rng.UniformInt(0, options.max_time_code)),
          0, 0));
    }
    return Status::OK();
  };

  if (external) {
    core::ExternalBuilderOptions options;
    options.max_records_in_memory = static_cast<size_t>(
        flags.GetInt("memory-records", 1 << 20));
    core::ExternalDatabaseBuilder builder(output, options);
    status = ingest(builder);
    if (status.ok()) {
      status = builder.Finish();
    }
    total = builder.total_records();
  } else {
    // In-memory build wrapped to present the same Status-based interface.
    struct Wrapper {
      core::DatabaseBuilder builder;
      Status AddVideo(uint32_t id,
                      const std::vector<fp::LocalFingerprint>& fps) {
        builder.AddVideo(id, fps);
        return Status::OK();
      }
      Status Add(const fp::Fingerprint& f, uint32_t id, uint32_t tc, float x,
                 float y) {
        builder.Add(f, id, tc, x, y);
        return Status::OK();
      }
    };
    Wrapper wrapper;
    status = ingest(wrapper);
    if (status.ok()) {
      total = wrapper.builder.size();
      status = wrapper.builder.Build().SaveToFile(output);
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "build failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %llu records to %s in %.1f s (%s build)\n",
              static_cast<unsigned long long>(total), output.c_str(),
              watch.ElapsedSeconds(), external ? "external" : "in-memory");
  return 0;
}

int CmdVerify(const Flags& flags) {
  const std::string path = flags.Get("db", "");
  auto db = core::FingerprintDatabase::LoadFromFile(path);
  if (!db.ok()) {
    std::fprintf(stderr, "verify FAILED: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  std::printf("verify OK: %zu records, checksum valid, curve-ordered\n",
              db->size());
  return 0;
}

int CmdInspect(const Flags& flags) {
  const std::string path = flags.Get("db", "");
  auto db = core::FingerprintDatabase::LoadFromFile(path);
  if (!db.ok()) {
    std::fprintf(stderr, "inspect failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  std::printf("records:      %zu\n", db->size());
  std::printf("memory:       %.1f MiB\n",
              db->MemoryBytes() / 1048576.0);
  std::map<uint32_t, uint64_t> per_id;
  for (size_t i = 0; i < db->size(); ++i) {
    ++per_id[db->record(i).id];
  }
  std::printf("distinct ids: %zu\n", per_id.size());
  // Occupancy of the 16 top-level curve sections: their depth-4 prefix
  // table's bucket widths (the loader already checked the code order).
  if (!db->empty()) {
    core::PrefixTable table(4);
    for (const uint32_t code : db->codes()) {
      table.Append(code);
    }
    table.Finish();
    std::printf("top-level section occupancy:");
    for (uint64_t s = 0; s < table.num_prefixes(); ++s) {
      std::printf(" %.1f%%", 100.0 * (table.offset(s + 1) - table.offset(s)) /
                                 db->size());
    }
    std::printf("\n");
  }
  return 0;
}

int CmdQuery(const Flags& flags) {
  const std::string backend = flags.Get("backend", "s3");
  if (!ValidateBackend("query", backend)) {
    return 2;
  }
  const std::string path = flags.Get("db", "");
  auto db = core::FingerprintDatabase::LoadFromFile(path);
  if (!db.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  const double alpha = flags.GetDouble("alpha", 0.8);
  const double sigma = flags.GetDouble("sigma", 15.0);
  const int count = static_cast<int>(flags.GetInt("count", 100));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 99)));

  // Sample everything drawn from the records — tuning queries, then the
  // (target, distorted self-query) pairs — before MakeSearcher consumes
  // the database.
  const size_t db_size = db->size();
  std::vector<fp::Fingerprint> tune;
  int depth = static_cast<int>(flags.GetInt("depth", 0));
  if (depth == 0) {
    for (int i = 0; i < 16; ++i) {
      tune.push_back(core::DistortFingerprint(
          db->record(static_cast<size_t>(rng.UniformInt(
                         0, static_cast<int64_t>(db_size) - 1)))
              .descriptor,
          sigma, &rng));
    }
  }
  std::vector<fp::Fingerprint> targets;
  std::vector<fp::Fingerprint> queries;
  targets.reserve(static_cast<size_t>(count));
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    targets.push_back(db->record(static_cast<size_t>(rng.UniformInt(
                                     0, static_cast<int64_t>(db_size) - 1)))
                          .descriptor);
    queries.push_back(
        core::DistortFingerprint(targets.back(), sigma, &rng));
  }

  // The segment backend persists across runs: when --store-dir already
  // holds a manifest the store is authoritative, so hand the factory an
  // empty database (the loaded .s3db keeps serving as the query-sampling
  // corpus above). A fresh --store-dir ingests the database once.
  store::SearcherConfig config;
  config.segment_store_dir = flags.Get("store-dir", "");
  ApplyVamanaFlags(flags, &config);
  if (backend == "vamana") {
    // Persist the built graph next to the database so repeat runs load it
    // instead of rebuilding (invalidated automatically when the records
    // or the build options change — see core/vamana.h).
    config.vamana_graph_path = path + ".vamana";
  }
  core::FingerprintDatabase backend_db = std::move(*db);
  if (!config.segment_store_dir.empty() &&
      std::filesystem::exists(config.segment_store_dir + "/CURRENT")) {
    std::printf("segment store %s already holds records; serving from its "
                "manifest\n",
                config.segment_store_dir.c_str());
    backend_db = core::FingerprintDatabase();
  }
  auto searcher =
      store::MakeSearcher(backend, std::move(backend_db), config);
  if (!searcher.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 searcher.status().ToString().c_str());
    return 1;
  }
  const core::Searcher& index = **searcher;
  const core::GaussianDistortionModel model(sigma);
  if (depth == 0) {
    // Depth auto-tuning times statistical queries of the S3 index at each
    // candidate depth (Section IV-A); other backends ignore the depth.
    const auto* s3 = dynamic_cast<const core::S3Index*>(searcher->get());
    if (s3 != nullptr) {
      depth = core::TuneDepth(*s3, model, tune, alpha,
                              core::DefaultDepthCandidates(db_size))
                  .best_depth;
      std::printf("tuned depth p = %d\n", depth);
    } else {
      depth = 12;
      std::printf("backend %s has no tunable depth; using p = %d\n",
                  backend.c_str(), depth);
    }
  }
  core::QueryOptions options;
  options.filter.alpha = alpha;
  options.filter.depth = depth;
  ObsOutputs obs_out(flags);
  obs_out.Begin();
  // Retrieval check: the target's match distance must show up (nearly)
  // exactly.
  const double hit_tolerance = 1e-3;
  int hits = 0;
  uint64_t matches = 0;
  core::QueryStats totals;
  Stopwatch watch;
  for (int i = 0; i < count; ++i) {
    const fp::Fingerprint& q = queries[static_cast<size_t>(i)];
    const auto result = index.StatQuery(q, model, options);
    matches += result.matches.size();
    totals.blocks_selected += result.stats.blocks_selected;
    totals.nodes_visited += result.stats.nodes_visited;
    totals.ranges_scanned += result.stats.ranges_scanned;
    totals.records_scanned += result.stats.records_scanned;
    totals.selection_ns += result.stats.selection_ns;
    totals.refine_ns += result.stats.refine_ns;
    const double target_dist =
        fp::Distance(q, targets[static_cast<size_t>(i)]);
    for (const auto& m : result.matches) {
      if (std::abs(m.distance - target_dist) < hit_tolerance) {
        ++hits;
        break;
      }
    }
  }
  std::printf(
      "%d self-queries (backend=%s alpha=%.2f sigma=%.1f p=%d "
      "scan_kernel=%s): retrieval %.1f%%, avg %.3f ms, avg %.0f "
      "results\n",
      count, backend.c_str(), alpha, sigma, depth,
      core::ActiveScanKernelName(),
      100.0 * hits / count, watch.ElapsedMillis() / count,
      static_cast<double>(matches) / count);
  std::printf(
      "selection/refine split: selection %.1f us/query, refine %.1f "
      "us/query\n",
      static_cast<double>(totals.selection_ns) * 1e-3 / count,
      static_cast<double>(totals.refine_ns) * 1e-3 / count);

  // Per-query QueryStats and the global registry count the same events;
  // print both so a metrics consumer can cross-check (they must agree).
  {
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::Global().Snapshot();
    std::printf(
        "metrics cross-check: records_scanned stats=%llu counter=%llu, "
        "blocks_selected stats=%llu counter=%llu (%s)\n",
        static_cast<unsigned long long>(totals.records_scanned),
        static_cast<unsigned long long>(
            snap.CounterOr0("index.records_scanned")),
        static_cast<unsigned long long>(totals.blocks_selected),
        static_cast<unsigned long long>(
            snap.CounterOr0("index.blocks_selected")),
        totals.records_scanned == snap.CounterOr0("index.records_scanned") &&
                totals.blocks_selected ==
                    snap.CounterOr0("index.blocks_selected")
            ? "match"
            : "MISMATCH");
  }

  // Optional pseudo-disk replay of the same batch, so the emitted metrics
  // and trace also cover the file-backed I/O path.
  const int section_depth = static_cast<int>(flags.GetInt("pseudo-disk", -1));
  if (section_depth >= 0) {
    core::PseudoDiskOptions pd_options;
    pd_options.section_depth = section_depth;
    pd_options.query_depth = std::max(depth, section_depth);
    pd_options.alpha = alpha;
    auto searcher = core::PseudoDiskSearcher::Open(path, pd_options);
    if (!searcher.ok()) {
      std::fprintf(stderr, "pseudo-disk open failed: %s\n",
                   searcher.status().ToString().c_str());
      return 1;
    }
    std::vector<std::vector<core::Match>> pd_results;
    core::PseudoDiskBatchStats pd_stats;
    const Status status =
        searcher->SearchBatch(queries, model, &pd_results, &pd_stats);
    if (!status.ok()) {
      std::fprintf(stderr, "pseudo-disk batch failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf(
        "pseudo-disk replay (r=%d): %llu sections loaded, %llu records "
        "loaded, %llu scanned, %.1f ms load + %.1f ms refine\n",
        section_depth,
        static_cast<unsigned long long>(pd_stats.sections_loaded),
        static_cast<unsigned long long>(pd_stats.records_loaded),
        static_cast<unsigned long long>(pd_stats.records_scanned),
        pd_stats.load_seconds * 1e3, pd_stats.refine_seconds * 1e3);
  }
  return obs_out.Finish();
}

// Opens a persistent segment store and runs its size-tiered compaction to
// a steady state, reporting the generation and segment population before
// and after — the offline maintenance entry point of the segment backend
// (the online path compacts through Searcher::Compact).
int CmdCompact(const Flags& flags) {
  const std::string store_dir = flags.Get("store-dir", "");
  if (store_dir.empty()) {
    std::fprintf(stderr, "compact: --store-dir is required\n");
    return 2;
  }
  if (!std::filesystem::exists(store_dir + "/CURRENT")) {
    std::fprintf(stderr, "compact failed: no segment store in %s\n",
                 store_dir.c_str());
    return 1;
  }
  auto store = store::SegmentStore::Open(store_dir);
  if (!store.ok()) {
    std::fprintf(stderr, "compact failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  std::printf("before: generation %" PRIu64 ", %zu segments, %" PRIu64
              " records, %.1f MiB on disk\n",
              (*store)->generation(), (*store)->num_segments(),
              (*store)->total_records(), (*store)->DiskBytes() / 1048576.0);
  Stopwatch watch;
  const Status status = (*store)->CompactAll();
  if (!status.ok()) {
    std::fprintf(stderr, "compact failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("after:  generation %" PRIu64 ", %zu segments, %" PRIu64
              " records, %.1f MiB on disk (%.2f s)\n",
              (*store)->generation(), (*store)->num_segments(),
              (*store)->total_records(), (*store)->DiskBytes() / 1048576.0,
              watch.ElapsedSeconds());
  return 0;
}

int CmdMonitor(const Flags& flags) {
  const std::string backend = flags.Get("backend", "s3");
  if (!ValidateBackend("monitor", backend)) {
    return 2;
  }
  const std::string path = flags.Get("db", "");
  auto db = core::FingerprintDatabase::LoadFromFile(path);
  if (!db.ok()) {
    std::fprintf(stderr, "monitor failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  auto searcher = store::MakeSearcher(backend, std::move(*db));
  if (!searcher.ok()) {
    std::fprintf(stderr, "monitor failed: %s\n",
                 searcher.status().ToString().c_str());
    return 1;
  }
  const double alpha = flags.GetDouble("alpha", 0.8);
  const double sigma = flags.GetDouble("sigma", 12.0);
  const int stream_frames =
      static_cast<int>(flags.GetInt("stream-frames", 150));
  const uint64_t copy_seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int threshold = static_cast<int>(flags.GetInt("threshold", 8));

  // Stream: filler + a rerun of reference video 0 (seed convention of
  // CmdBuild) + filler.
  media::VideoSequence stream = Clip(987654, stream_frames);
  const media::VideoSequence copy = Clip(copy_seed, 200);
  const int copy_start = stream.num_frames();
  stream.frames.insert(stream.frames.end(), copy.frames.begin(),
                       copy.frames.end());
  const media::VideoSequence tail = Clip(876543, stream_frames);
  stream.frames.insert(stream.frames.end(), tail.frames.begin(),
                       tail.frames.end());

  const core::GaussianDistortionModel model(sigma);
  cbcd::DetectorOptions options;
  options.query.filter.alpha = alpha;
  options.query.filter.depth = 14;
  options.vote.use_spatial_coherence = true;
  options.nsim_threshold = threshold;
  const cbcd::CopyDetector detector(searcher->get(), &model, options);
  cbcd::StreamMonitor monitor(&detector, cbcd::StreamMonitor::Options{});

  const fp::FingerprintExtractor extractor;
  const auto fps = extractor.Extract(stream);
  ObsOutputs obs_out(flags);
  obs_out.Begin();
  Stopwatch watch;
  int reports = 0;
  size_t i = 0;
  while (i < fps.size()) {
    std::vector<fp::LocalFingerprint> keyframe;
    const uint32_t tc = fps[i].time_code;
    while (i < fps.size() && fps[i].time_code == tc) {
      keyframe.push_back(fps[i]);
      ++i;
    }
    for (const auto& d : monitor.PushKeyFrame(keyframe)) {
      std::printf("detection: id %u at stream frame %+.0f (nsim %d)\n",
                  d.id, d.offset, d.nsim);
      ++reports;
    }
  }
  for (const auto& d : monitor.Flush()) {
    std::printf("detection: id %u at stream frame %+.0f (nsim %d)\n", d.id,
                d.offset, d.nsim);
    ++reports;
  }
  std::printf(
      "monitored %.1f s of stream in %.1f s; %d detections "
      "(embedded copy starts at frame %d)\n",
      stream.num_frames() / 25.0, watch.ElapsedSeconds(), reports,
      copy_start);
  if (obs_out.Finish() != 0) {
    return 1;
  }
  return reports > 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr, "usage: s3vcd_tool <command> [--flag value]...\n\n");
  for (const CommandSpec& command : Commands()) {
    std::fprintf(stderr, "  %-12s %s\n", command.name, command.summary);
  }
  std::fprintf(stderr,
               "\nrun `s3vcd_tool <command> --help 1` or pass an unknown "
               "flag to see a command's flag table (also in README.md)\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command_name = argv[1];
  const CommandSpec* command = FindCommand(command_name);
  if (command == nullptr) {
    std::fprintf(stderr, "unknown command '%s'\n", command_name.c_str());
    return Usage();
  }
  // Strip a trailing --external switch (the only valueless flag).
  bool external = false;
  int effective_argc = argc;
  if (argc >= 3 && std::strcmp(argv[argc - 1], "--external") == 0) {
    external = true;
    effective_argc = argc - 1;
  }
  if (external && command_name != "build") {
    std::fprintf(stderr, "unknown flag --external for command %s\n",
                 command_name.c_str());
    PrintCommandUsage(*command);
    return 2;
  }
  const Flags flags(effective_argc, argv, 2);
  if (flags.bad() != nullptr) {
    std::fprintf(stderr, "bad argument: %s\n", flags.bad());
    PrintCommandUsage(*command);
    return 2;
  }
  if (flags.values().count("help") > 0) {
    PrintCommandUsage(*command);
    return 2;
  }
  if (!RejectBadFlags(*command, flags)) {
    return 2;
  }
  if (command_name == "build") {
    return CmdBuild(flags, external);
  }
  if (command_name == "inspect") {
    return CmdInspect(flags);
  }
  if (command_name == "verify") {
    return CmdVerify(flags);
  }
  if (command_name == "query") {
    return CmdQuery(flags);
  }
  if (command_name == "compact") {
    return CmdCompact(flags);
  }
  return CmdMonitor(flags);
}

}  // namespace
}  // namespace s3vcd::tool

int main(int argc, char** argv) { return s3vcd::tool::Main(argc, argv); }
