#include "store/segment_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <queue>
#include <set>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/io.h"

namespace s3vcd::store {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kManifestMagic = 0x53334D46;  // "S3MF"
// Version 2 dropped the curve order field (version 1 is refused).
constexpr uint32_t kManifestVersion = 2;
constexpr char kCurrentName[] = "CURRENT";
// Upper bound on the records a single compaction merges: it bounds the
// transient memory of the merge, which accumulates the merged run in
// memory before writing it out.
constexpr uint64_t kMaxCompactionRecords = uint64_t{64} << 20;

obs::Counter* const g_segments_written =
    obs::MetricsRegistry::Global().GetCounter("store.segments_written");
obs::Counter* const g_bytes_written =
    obs::MetricsRegistry::Global().GetCounter("store.bytes_written");
obs::Counter* const g_compactions =
    obs::MetricsRegistry::Global().GetCounter("store.compactions");
obs::Counter* const g_compaction_inputs =
    obs::MetricsRegistry::Global().GetCounter("store.compaction_inputs");
obs::Counter* const g_compaction_records =
    obs::MetricsRegistry::Global().GetCounter("store.compaction_records");
obs::Gauge* const g_segments =
    obs::MetricsRegistry::Global().GetGauge("store.segments");
obs::Gauge* const g_records =
    obs::MetricsRegistry::Global().GetGauge("store.records");
obs::Gauge* const g_generation =
    obs::MetricsRegistry::Global().GetGauge("store.generation");

std::string ManifestName(uint64_t generation) {
  return "MANIFEST-" + std::to_string(generation);
}

Status RenameFile(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError("rename failed: " + from + " -> " + to);
  }
  return Status::OK();
}

/// Size tier of a segment: tier 0 holds up to `base` records, each higher
/// tier `fanin` times more.
int SegmentTier(uint64_t records, uint64_t base, int fanin) {
  int tier = 0;
  uint64_t cap = std::max<uint64_t>(base, 1);
  while (records > cap && tier < 62) {
    cap *= static_cast<uint64_t>(fanin);
    ++tier;
  }
  return tier;
}

}  // namespace

SegmentStore::SegmentStore(std::string dir, SegmentStoreOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {}

Result<std::unique_ptr<SegmentStore>> SegmentStore::Open(
    const std::string& dir, const SegmentStoreOptions& options) {
  if (options.tier_fanin < 2) {
    return Status::InvalidArgument("tier_fanin must be >= 2");
  }
  std::unique_ptr<SegmentStore> store(new SegmentStore(dir, options));
  S3VCD_RETURN_IF_ERROR(store->Load());
  return store;
}

Status SegmentStore::Load() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create store directory: " + dir_);
  }

  auto view = std::make_shared<View>();
  const std::string current_path = dir_ + "/" + kCurrentName;
  if (fs::exists(current_path)) {
    // Reopen: CURRENT names the live manifest.
    S3VCD_ASSIGN_OR_RETURN(const std::vector<uint8_t> current_bytes,
                           ReadFileBytes(current_path));
    std::string manifest_name(current_bytes.begin(), current_bytes.end());
    while (!manifest_name.empty() &&
           (manifest_name.back() == '\n' || manifest_name.back() == '\r')) {
      manifest_name.pop_back();
    }
    if (manifest_name.empty() ||
        manifest_name.find('/') != std::string::npos) {
      return Status::Corruption("CURRENT does not name a manifest: " + dir_);
    }

    BinaryReader reader;
    if (!reader.Open(dir_ + "/" + manifest_name).ok()) {
      return Status::Corruption("CURRENT names a missing manifest '" +
                                manifest_name + "': " + dir_);
    }
    struct Entry {
      uint64_t id;
      uint64_t records;
      std::string name;
    };
    std::vector<Entry> entries;
    const auto parse = [&]() -> Status {
      uint32_t magic = 0;
      uint32_t version = 0;
      uint32_t segment_count = 0;
      S3VCD_RETURN_IF_ERROR(reader.ReadU32(&magic));
      if (magic != kManifestMagic) {
        return Status::Corruption("bad manifest magic: " + manifest_name);
      }
      S3VCD_RETURN_IF_ERROR(reader.ReadU32(&version));
      if (version != kManifestVersion) {
        return Status::Corruption("unsupported manifest version " +
                                  std::to_string(version) + ": " +
                                  manifest_name);
      }
      S3VCD_RETURN_IF_ERROR(reader.ReadU64(&view->generation));
      S3VCD_RETURN_IF_ERROR(reader.ReadU64(&next_segment_id_));
      S3VCD_RETURN_IF_ERROR(reader.ReadU32(&segment_count));
      if (segment_count > (1u << 20)) {
        return Status::Corruption("manifest fields out of range: " +
                                  manifest_name);
      }
      entries.resize(segment_count);
      for (Entry& e : entries) {
        S3VCD_RETURN_IF_ERROR(reader.ReadU64(&e.id));
        S3VCD_RETURN_IF_ERROR(reader.ReadU64(&e.records));
        S3VCD_RETURN_IF_ERROR(reader.ReadString(&e.name));
        if (e.name.empty() || e.name.find('/') != std::string::npos ||
            !fs::is_regular_file(dir_ + "/" + e.name)) {
          return Status::Corruption(
              "manifest entry names no segment file: " + manifest_name);
        }
      }
      const uint32_t computed_crc = reader.crc();
      uint32_t stored_crc = 0;
      S3VCD_RETURN_IF_ERROR(reader.ReadU32(&stored_crc));
      if (stored_crc != computed_crc) {
        return Status::Corruption("manifest checksum mismatch: " +
                                  manifest_name);
      }
      return reader.Close();
    };
    Status parsed = parse();
    if (parsed.code() == StatusCode::kIOError) {
      // The manifest opened, so a short read means it is shorter than its
      // own fields.
      parsed = Status::Corruption("manifest truncated: " + manifest_name);
    }
    S3VCD_RETURN_IF_ERROR(parsed);

    const SegmentReadOptions read_options{options_.use_mmap};
    for (const Entry& e : entries) {
      S3VCD_ASSIGN_OR_RETURN(
          std::shared_ptr<SegmentReader> segment,
          SegmentReader::Open(dir_ + "/" + e.name, read_options));
      if (segment->segment_id() != e.id || segment->size() != e.records) {
        return Status::Corruption(
            "segment identity disagrees with manifest: " + e.name);
      }
      view->total_records += segment->size();
      view->segments.push_back(std::move(segment));
    }
  }
  // A fresh store has nothing durable until the first commit.

  {
    std::lock_guard<std::mutex> lock(view_mu_);
    view_ = std::move(view);
  }
  g_segments->Set(static_cast<int64_t>(num_segments()));
  g_records->Set(static_cast<int64_t>(total_records()));
  g_generation->Set(static_cast<int64_t>(generation()));
  RemoveUnreferenced();
  return Status::OK();
}

void SegmentStore::RemoveUnreferenced() {
  const std::shared_ptr<const View> view = this->view();
  std::set<std::string> keep = {kCurrentName};
  if (view->generation > 0 || !view->segments.empty()) {
    keep.insert(ManifestName(view->generation));
  }
  for (const auto& segment : view->segments) {
    keep.insert(fs::path(segment->path()).filename().string());
  }
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (keep.count(name) > 0) {
      continue;
    }
    // Only touch files this store wrote: segments, manifests, temporaries.
    const bool ours = name.rfind("seg-", 0) == 0 ||
                      name.rfind("MANIFEST-", 0) == 0 ||
                      name.rfind("CURRENT.tmp", 0) == 0;
    if (ours) {
      S3VCD_LOG(INFO) << "segment store gc: removing unreferenced " << name;
      fs::remove(entry.path(), ec);
    }
  }
}

std::string SegmentStore::SegmentName(uint64_t id) const {
  return "seg-" + std::to_string(id) + ".s3seg";
}

std::string SegmentStore::SegmentPath(uint64_t id) const {
  return dir_ + "/" + SegmentName(id);
}

std::shared_ptr<const SegmentStore::View> SegmentStore::view() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_;
}

uint64_t SegmentStore::DiskBytes() const {
  uint64_t bytes = 0;
  for (const auto& segment : view()->segments) {
    bytes += segment->file_bytes();
  }
  return bytes;
}

Status SegmentStore::WriteCurrent(const std::string& manifest_name) {
  const std::string tmp = dir_ + "/CURRENT.tmp";
  BinaryWriter writer;
  S3VCD_RETURN_IF_ERROR(writer.Open(tmp));
  const std::string line = manifest_name + "\n";
  S3VCD_RETURN_IF_ERROR(writer.WriteBytes(line.data(), line.size()));
  if (options_.sync_writes) {
    S3VCD_RETURN_IF_ERROR(writer.Sync());
  }
  S3VCD_RETURN_IF_ERROR(writer.Close());
  S3VCD_RETURN_IF_ERROR(RenameFile(tmp, dir_ + "/" + kCurrentName));
  if (options_.sync_writes) {
    S3VCD_RETURN_IF_ERROR(SyncDir(dir_));
  }
  return Status::OK();
}

Status SegmentStore::CommitGeneration(
    uint64_t generation,
    const std::vector<std::shared_ptr<SegmentReader>>& segments) {
  const std::string name = ManifestName(generation);
  BinaryWriter writer;
  S3VCD_RETURN_IF_ERROR(writer.Open(dir_ + "/" + name));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(kManifestMagic));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(kManifestVersion));
  S3VCD_RETURN_IF_ERROR(writer.WriteU64(generation));
  S3VCD_RETURN_IF_ERROR(writer.WriteU64(next_segment_id_));
  S3VCD_RETURN_IF_ERROR(
      writer.WriteU32(static_cast<uint32_t>(segments.size())));
  for (const auto& segment : segments) {
    S3VCD_RETURN_IF_ERROR(writer.WriteU64(segment->segment_id()));
    S3VCD_RETURN_IF_ERROR(writer.WriteU64(segment->size()));
    S3VCD_RETURN_IF_ERROR(writer.WriteString(
        fs::path(segment->path()).filename().string()));
  }
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(writer.crc()));
  if (options_.sync_writes) {
    S3VCD_RETURN_IF_ERROR(writer.Sync());
  }
  S3VCD_RETURN_IF_ERROR(writer.Close());
  // The point of no return: CURRENT flips to the new generation.
  return WriteCurrent(name);
}

Status SegmentStore::AppendSegment(const core::DescriptorBlock& block,
                                   const std::vector<uint32_t>& codes) {
  if (block.empty()) {
    return Status::OK();
  }
  S3VCD_TRACE_SPAN("store.spill");
  std::lock_guard<std::mutex> lock(writer_mu_);

  const uint64_t id = next_segment_id_++;
  const std::string path = SegmentPath(id);
  const std::string tmp = path + ".tmp";
  S3VCD_RETURN_IF_ERROR(WriteSegmentFile(
      tmp, id, block, codes, {options_.sync_writes}));
  S3VCD_RETURN_IF_ERROR(RenameFile(tmp, path));

  const SegmentReadOptions read_options{options_.use_mmap};
  auto opened = SegmentReader::Open(path, read_options);
  if (!opened.ok()) {
    std::remove(path.c_str());
    return opened.status();
  }

  const std::shared_ptr<const View> old_view = view();
  auto next = std::make_shared<View>();
  next->generation = old_view->generation + 1;
  next->segments = old_view->segments;
  next->segments.push_back(*opened);
  next->total_records = old_view->total_records + (*opened)->size();
  const Status commit = CommitGeneration(next->generation, next->segments);
  if (!commit.ok()) {
    std::remove(path.c_str());
    return commit;
  }
  {
    std::lock_guard<std::mutex> view_lock(view_mu_);
    view_ = next;
  }
  g_segments_written->Increment();
  g_bytes_written->Increment((*opened)->file_bytes());
  g_segments->Set(static_cast<int64_t>(next->segments.size()));
  g_records->Set(static_cast<int64_t>(next->total_records));
  g_generation->Set(static_cast<int64_t>(next->generation));
  return Status::OK();
}

Status SegmentStore::Compact(bool* merged) {
  if (merged != nullptr) {
    *merged = false;
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  const std::shared_ptr<const View> old_view = view();

  // Bucket the current generation by size tier; merge the smallest
  // qualifying tier (ties broken toward fewer records first, so repeated
  // rounds drain the small end before touching big segments).
  std::vector<std::vector<size_t>> tiers;
  for (size_t i = 0; i < old_view->segments.size(); ++i) {
    const int tier = SegmentTier(old_view->segments[i]->size(),
                                 options_.tier_base_records,
                                 options_.tier_fanin);
    if (tiers.size() <= static_cast<size_t>(tier)) {
      tiers.resize(tier + 1);
    }
    tiers[tier].push_back(i);
  }
  std::vector<size_t> group;
  for (auto& tier : tiers) {
    if (tier.size() < static_cast<size_t>(options_.tier_fanin)) {
      continue;
    }
    std::sort(tier.begin(), tier.end(), [&](size_t a, size_t b) {
      return old_view->segments[a]->size() < old_view->segments[b]->size();
    });
    uint64_t records = 0;
    for (const size_t i : tier) {
      if (group.size() >= static_cast<size_t>(options_.tier_fanin)) {
        break;
      }
      const uint64_t n = old_view->segments[i]->size();
      if (!group.empty() && records + n > kMaxCompactionRecords) {
        break;
      }
      group.push_back(i);
      records += n;
    }
    if (group.size() >= 2) {
      break;
    }
    group.clear();
  }
  if (group.empty()) {
    return Status::OK();
  }

  S3VCD_TRACE_SPAN("store.compact");

  // K-way merge of the chosen segments, in manifest order, into one sorted
  // run. The merged run is accumulated in memory (bounded by
  // kMaxCompactionRecords) before it is written out.
  std::sort(group.begin(), group.end());
  struct Source {
    const SegmentReader* segment;
    size_t pos = 0;
  };
  std::vector<Source> sources;
  uint64_t total = 0;
  for (const size_t i : group) {
    sources.push_back({old_view->segments[i].get(), 0});
    total += old_view->segments[i]->size();
  }
  // A heap entry is (code, source): code ties go to the earlier source.
  using HeapEntry = std::pair<uint32_t, size_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  for (size_t s = 0; s < sources.size(); ++s) {
    if (sources[s].segment->size() > 0) {
      heap.push({sources[s].segment->codes()[0], s});
    }
  }
  core::DescriptorBlock block;
  block.Reserve(total);
  std::vector<uint32_t> codes;
  codes.reserve(total);
  while (!heap.empty()) {
    const auto [code, s] = heap.top();
    heap.pop();
    Source& src = sources[s];
    block.AppendRecord(src.segment->Record(src.pos));
    codes.push_back(code);
    if (++src.pos < src.segment->size()) {
      heap.push({src.segment->codes()[src.pos], s});
    }
  }

  const uint64_t id = next_segment_id_++;
  const std::string path = SegmentPath(id);
  const std::string tmp = path + ".tmp";
  S3VCD_RETURN_IF_ERROR(WriteSegmentFile(
      tmp, id, block, codes, {options_.sync_writes}));
  S3VCD_RETURN_IF_ERROR(RenameFile(tmp, path));

  if (fail_before_manifest_swap_) {
    // Crash-safety hook: the merged segment exists on disk but the
    // manifest still names the old generation — exactly the window a real
    // crash would hit. Reopen must serve the old generation and gc the
    // orphan (tests/store_test.cc).
    fail_before_manifest_swap_ = false;
    return Status::Internal("injected failure before manifest swap");
  }

  const SegmentReadOptions read_options{options_.use_mmap};
  auto opened = SegmentReader::Open(path, read_options);
  if (!opened.ok()) {
    std::remove(path.c_str());
    return opened.status();
  }

  auto next = std::make_shared<View>();
  next->generation = old_view->generation + 1;
  std::set<size_t> merged_set(group.begin(), group.end());
  for (size_t i = 0; i < old_view->segments.size(); ++i) {
    if (merged_set.count(i) == 0) {
      next->segments.push_back(old_view->segments[i]);
      next->total_records += old_view->segments[i]->size();
    }
  }
  next->segments.push_back(*opened);
  next->total_records += (*opened)->size();
  const Status commit = CommitGeneration(next->generation, next->segments);
  if (!commit.ok()) {
    std::remove(path.c_str());
    return commit;
  }
  {
    std::lock_guard<std::mutex> view_lock(view_mu_);
    view_ = next;
  }
  // The inputs are unreferenced by the new generation; queries holding the
  // old view keep the mappings alive until their snapshot drops.
  for (const size_t i : group) {
    std::remove(old_view->segments[i]->path().c_str());
  }
  g_segments_written->Increment();
  g_bytes_written->Increment((*opened)->file_bytes());
  g_compactions->Increment();
  g_compaction_inputs->Increment(group.size());
  g_compaction_records->Increment(total);
  g_segments->Set(static_cast<int64_t>(next->segments.size()));
  g_records->Set(static_cast<int64_t>(next->total_records));
  g_generation->Set(static_cast<int64_t>(next->generation));
  if (merged != nullptr) {
    *merged = true;
  }
  return Status::OK();
}

Status SegmentStore::CompactAll() {
  bool merged = true;
  while (merged) {
    S3VCD_RETURN_IF_ERROR(Compact(&merged));
  }
  return Status::OK();
}

}  // namespace s3vcd::store
