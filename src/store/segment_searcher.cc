#include "store/segment_searcher.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <utility>
#include <vector>

#include "core/scan_kernel.h"
#include "core/sorted_run.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace s3vcd::store {

namespace {

namespace fs = std::filesystem;

obs::Counter* const g_spills =
    obs::MetricsRegistry::Global().GetCounter("index.segment_spills");
obs::Counter* const g_inserts =
    obs::MetricsRegistry::Global().GetCounter("index.segment_inserts");
obs::Gauge* const g_segments =
    obs::MetricsRegistry::Global().GetGauge("index.segment_segments");
obs::Gauge* const g_pending =
    obs::MetricsRegistry::Global().GetGauge("index.segment_pending_inserts");

/// A fresh private store directory for ephemeral (no --store-dir) use.
/// ::mkdtemp rewrites the XXXXXX placeholder in place (std::string::data()
/// is a contiguous writable NUL-terminated buffer since C++17) and creates
/// the directory atomically, so concurrent ephemeral searchers always get
/// distinct directories; tests/store_test.cc pins both properties.
Result<std::string> MakeTempStoreDir() {
  std::string templ =
      (fs::temp_directory_path() / "s3vcd_segstore_XXXXXX").string();
  if (::mkdtemp(templ.data()) == nullptr) {
    return Status::IOError("cannot create temp store directory");
  }
  // Belt and braces: the template must have been materialized into an
  // existing directory (a libc that returned the unmodified template
  // would make every ephemeral searcher share — and delete — one path).
  if (templ.find("XXXXXX") != std::string::npos || !fs::is_directory(templ)) {
    return Status::IOError("temp store template was not materialized: " +
                           templ);
  }
  return templ;
}

}  // namespace

SegmentSearcher::SegmentSearcher(std::unique_ptr<SegmentStore> store,
                                 bool owns_dir)
    : store_(std::move(store)), owns_dir_(owns_dir), spill_threshold_(0) {}

SegmentSearcher::~SegmentSearcher() {
  if (owns_dir_) {
    const std::string dir = store_->dir();
    store_.reset();  // release the mappings before removing the files
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
}

Result<std::unique_ptr<SegmentSearcher>> SegmentSearcher::Open(
    core::FingerprintDatabase db, const SegmentSearcherOptions& options) {
  std::string dir = options.store_dir;
  bool owns_dir = false;
  if (dir.empty()) {
    S3VCD_ASSIGN_OR_RETURN(dir, MakeTempStoreDir());
    owns_dir = true;
  }
  SegmentStoreOptions store_options = options.store;
  store_options.tier_base_records =
      std::max<uint64_t>(options.spill_threshold, 1);

  auto store = SegmentStore::Open(dir, store_options);
  S3VCD_RETURN_IF_ERROR(store.status());

  if (!db.empty()) {
    if ((*store)->total_records() > 0) {
      return Status::FailedPrecondition(
          "segment store " + dir + " already holds records; reopen it with "
          "an empty database (the segments are authoritative)");
    }
    S3VCD_RETURN_IF_ERROR((*store)->AppendSegment(db.block(), db.codes()));
  }

  std::unique_ptr<SegmentSearcher> searcher(
      new SegmentSearcher(std::move(*store), owns_dir));
  searcher->spill_threshold_ = std::max<size_t>(options.spill_threshold, 1);
  g_segments->Set(static_cast<int64_t>(searcher->store_->num_segments()));
  return searcher;
}

void SegmentSearcher::ScanSelection(const fp::Fingerprint& query,
                                    const core::BlockSelection& selection,
                                    core::RefinementMode mode, double radius,
                                    const core::DistortionModel* model,
                                    core::QueryResult* result) const {
  const std::shared_ptr<const SegmentStore::View> view = store_->view();
  // Segments, then the memtable's runs: every source is a sorted run.
  std::vector<core::SortedRun> runs;
  runs.reserve(view->segments.size() + memtable_.num_runs());
  for (const auto& segment : view->segments) {
    runs.push_back(segment->run());
  }
  for (size_t r = 0; r < memtable_.num_runs(); ++r) {
    runs.push_back(memtable_.run(r));
  }
  core::ScanSortedRuns(query, selection, runs,
                       core::RefineSpec(mode, radius, model), result);
}

core::SearcherStats SegmentSearcher::Stats() const {
  core::SearcherStats stats;
  stats.records = store_->total_records() + memtable_.size();
  return stats;
}

uint64_t SegmentSearcher::ApproxBytes() const {
  uint64_t bytes = memtable_.MemoryBytes();
  for (const auto& segment : store_->view()->segments) {
    // Mapped segments count their full file: a scan touches every column
    // page, so that is the working-set contribution for capacity planning.
    // The prefix table is resident either way.
    bytes += (segment->mapped() ? segment->file_bytes()
                                : segment->resident_bytes()) +
             segment->run().table()->MemoryBytes();
  }
  return bytes;
}

bool SegmentSearcher::TryInsert(const fp::Fingerprint& fingerprint,
                                uint32_t id, uint32_t time_code, float x,
                                float y) {
  memtable_.Append(fingerprint, id, time_code, x, y,
                   core::OrthantCode(fingerprint));
  g_inserts->Increment();
  g_pending->Set(static_cast<int64_t>(memtable_.size()));
  if (memtable_.size() >= spill_threshold_) {
    const Status status = Spill();
    if (!status.ok()) {
      // The records stay queryable in the memtable; the next spill (or
      // Compact) retries.
      S3VCD_LOG(ERROR) << "segment spill failed: " << status.ToString();
    }
  }
  return true;
}

Status SegmentSearcher::Spill() {
  if (memtable_.empty()) {
    return Status::OK();
  }
  // One sorted run, arrival order among equal codes: one tier-0 segment.
  memtable_.MergeAll();
  S3VCD_RETURN_IF_ERROR(
      store_->AppendSegment(memtable_.block(), memtable_.codes()));
  memtable_.Clear();
  g_spills->Increment();
  g_pending->Set(0);
  g_segments->Set(static_cast<int64_t>(store_->num_segments()));
  return Status::OK();
}

void SegmentSearcher::Compact() {
  Status status = Spill();
  if (status.ok()) {
    status = store_->CompactAll();
  }
  if (!status.ok()) {
    S3VCD_LOG(ERROR) << "segment compaction failed: " << status.ToString();
  }
  g_segments->Set(static_cast<int64_t>(store_->num_segments()));
}

}  // namespace s3vcd::store
