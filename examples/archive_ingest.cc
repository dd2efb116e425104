// Archive ingestion example: the paper's index is deliberately static, but
// a TV archive grows every day. The "segment" backend keeps the archive as
// Hilbert-sorted segments plus a sorted in-memory write buffer, so freshly
// ingested programmes are searchable immediately; compaction writes the
// buffer out and merges the segments. Without a store directory the store
// is ephemeral (a private temp directory removed on exit).
//
// Build & run:  ./build/examples/archive_ingest

#include <cstdio>

#include "cbcd/detector.h"
#include "core/database.h"
#include "core/distortion_model.h"
#include "core/synthetic_db.h"
#include "fingerprint/extractor.h"
#include "media/synthetic.h"
#include "store/segment_searcher.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace s3vcd;

namespace {

media::VideoSequence Programme(uint64_t seed) {
  media::SyntheticVideoConfig config;
  config.width = 96;
  config.height = 80;
  config.num_frames = 200;
  config.seed = seed;
  return media::GenerateSyntheticVideo(config);
}

// Counts how many fingerprints of `fps` retrieve their exact descriptor.
int CountRetrieved(const core::Searcher& index,
                   const std::vector<fp::LocalFingerprint>& fps,
                   const core::DistortionModel& model) {
  core::QueryOptions options;
  options.filter.alpha = 0.9;
  options.filter.depth = 14;
  int hits = 0;
  for (const auto& lf : fps) {
    const auto result = index.StatQuery(lf.descriptor, model, options);
    for (const auto& m : result.matches) {
      if (m.distance == 0.0f) {
        ++hits;
        break;
      }
    }
  }
  return hits;
}

}  // namespace

int main() {
  // Day 0: the existing archive (3 programmes + distractor bulk).
  const fp::FingerprintExtractor extractor;
  core::DatabaseBuilder builder;
  std::vector<fp::Fingerprint> pool;
  for (uint32_t id = 0; id < 3; ++id) {
    const auto fps = extractor.Extract(Programme(42 + id));
    builder.AddVideo(id, fps);
    for (const auto& lf : fps) {
      pool.push_back(lf.descriptor);
    }
  }
  Rng rng(7);
  core::AppendDistractors(&builder, pool, 150000, core::DistractorOptions{},
                          &rng);
  auto opened = store::SegmentSearcher::Open(builder.Build(), {});
  if (!opened.ok()) {
    std::printf("FATAL: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  store::SegmentSearcher& archive = **opened;
  std::printf("day 0 archive: %llu fingerprints in %zu segment(s)\n",
              static_cast<unsigned long long>(archive.Stats().records),
              archive.segment_store().num_segments());

  const core::GaussianDistortionModel model(12.0);

  // Day 1: a new programme arrives and must be searchable immediately.
  const media::VideoSequence fresh = Programme(1000);
  const auto fresh_fps = extractor.Extract(fresh);
  std::printf("before ingest: %d/%zu of the new programme's fingerprints "
              "retrieved\n",
              CountRetrieved(archive, fresh_fps, model), fresh_fps.size());

  Stopwatch watch;
  for (const auto& lf : fresh_fps) {
    archive.TryInsert(lf.descriptor, /*id=*/100, lf.time_code, lf.x, lf.y);
  }
  std::printf("ingested %zu fingerprints in %.2f ms (buffered: %zu)\n",
              fresh_fps.size(), watch.ElapsedMillis(),
              archive.pending_inserts());
  std::printf("after ingest:  %d/%zu retrieved (no rebuild yet)\n",
              CountRetrieved(archive, fresh_fps, model), fresh_fps.size());

  // Nightly compaction writes the buffer out as a segment and runs the
  // store's tiered compaction.
  watch.Reset();
  archive.Compact();
  std::printf("compacted into %zu segment(s) in %.0f ms; buffered: %zu\n",
              archive.segment_store().num_segments(), watch.ElapsedMillis(),
              archive.pending_inserts());
  std::printf("after compact: %d/%zu retrieved\n",
              CountRetrieved(archive, fresh_fps, model), fresh_fps.size());
  return 0;
}
