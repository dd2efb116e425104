#include "core/external_builder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <queue>

#include "core/sorted_run.h"
#include "util/io.h"
#include "util/logging.h"

namespace s3vcd::core {

namespace {

constexpr uint32_t kRunMagic = 0x53325255;  // "S2RU"
// Run record layout: key + serialized record. Runs are temporaries read
// back by the host that wrote them, so the key keeps BitKey's own layout.
constexpr size_t kKeyBytes = sizeof(BitKey);
constexpr size_t kRunRecordBytes = kKeyBytes + internal::kRecordBytes;

// Buffered sequential reader over one sorted run file.
class RunReader {
 public:
  explicit RunReader(const std::string& path) : path_(path) {}

  Status Open() {
    S3VCD_RETURN_IF_ERROR(reader_.Open(path_));
    uint32_t magic = 0;
    S3VCD_RETURN_IF_ERROR(reader_.ReadU32(&magic));
    if (magic != kRunMagic) {
      return Status::Corruption("not a run file: " + path_);
    }
    S3VCD_RETURN_IF_ERROR(reader_.ReadU64(&remaining_));
    return Advance();
  }

  bool exhausted() const { return exhausted_; }
  const BitKey& key() const { return key_; }
  const FingerprintRecord& record() const { return record_; }

  Status Advance() {
    if (remaining_ == 0) {
      exhausted_ = true;
      return reader_.Close();
    }
    uint8_t buf[kRunRecordBytes];
    S3VCD_RETURN_IF_ERROR(reader_.ReadBytes(buf, kRunRecordBytes));
    std::memcpy(&key_, buf, kKeyBytes);
    internal::DeserializeRecord(buf + kKeyBytes, &record_);
    --remaining_;
    return Status::OK();
  }

 private:
  std::string path_;
  BinaryReader reader_;
  uint64_t remaining_ = 0;
  bool exhausted_ = false;
  BitKey key_;
  FingerprintRecord record_;
};

}  // namespace

ExternalDatabaseBuilder::ExternalDatabaseBuilder(
    std::string output_path, const ExternalBuilderOptions& options)
    : output_path_(std::move(output_path)),
      options_(options),
      curve_(fp::kDims, options.order) {
  S3VCD_CHECK(options.max_records_in_memory >= 2);
  buffer_.reserve(std::min<size_t>(options.max_records_in_memory, 1 << 16));
}

ExternalDatabaseBuilder::~ExternalDatabaseBuilder() {
  // Best-effort cleanup of temporaries if Finish was never called.
  for (const std::string& path : run_paths_) {
    std::remove(path.c_str());
  }
}

void ExternalDatabaseBuilder::SortBuffer() {
  std::sort(buffer_.begin(), buffer_.end(),
            [](const KeyedRecord& a, const KeyedRecord& b) {
              return a.key < b.key;
            });
}

Status ExternalDatabaseBuilder::SpillRun() {
  SortBuffer();
  const std::string path = options_.temp_dir + "/s3vcd_run_" +
                           std::to_string(reinterpret_cast<uintptr_t>(this)) +
                           "_" + std::to_string(run_paths_.size()) + ".tmp";
  BinaryWriter writer;
  S3VCD_RETURN_IF_ERROR(writer.Open(path));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(kRunMagic));
  S3VCD_RETURN_IF_ERROR(writer.WriteU64(buffer_.size()));
  uint8_t buf[kRunRecordBytes];
  for (const KeyedRecord& kr : buffer_) {
    std::memcpy(buf, &kr.key, kKeyBytes);
    internal::SerializeRecord(kr.record, buf + kKeyBytes);
    S3VCD_RETURN_IF_ERROR(writer.WriteBytes(buf, kRunRecordBytes));
  }
  S3VCD_RETURN_IF_ERROR(writer.Close());
  run_paths_.push_back(path);
  buffer_.clear();
  return Status::OK();
}

Status ExternalDatabaseBuilder::Add(const fp::Fingerprint& fingerprint,
                                    uint32_t id, uint32_t time_code, float x,
                                    float y) {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  KeyedRecord kr;
  kr.key = CurveKey(curve_, fingerprint);
  kr.record = {fingerprint, id, time_code, x, y};
  buffer_.push_back(kr);
  ++total_records_;
  if (buffer_.size() >= options_.max_records_in_memory) {
    return SpillRun();
  }
  return Status::OK();
}

Status ExternalDatabaseBuilder::AddVideo(
    uint32_t id, const std::vector<fp::LocalFingerprint>& fps) {
  for (const fp::LocalFingerprint& lf : fps) {
    S3VCD_RETURN_IF_ERROR(Add(lf.descriptor, id, lf.time_code, lf.x, lf.y));
  }
  return Status::OK();
}

Status ExternalDatabaseBuilder::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("builder already finished");
  }
  finished_ = true;
  const Status status = MergeRuns();
  // Temp runs are gone after Finish whether the merge succeeded or not;
  // a failed merge also takes its partial output file with it.
  for (const std::string& path : run_paths_) {
    std::remove(path.c_str());
  }
  run_paths_.clear();
  buffer_.clear();
  if (!status.ok()) {
    std::remove(output_path_.c_str());
  }
  return status;
}

Status ExternalDatabaseBuilder::MergeRuns() {
  SortBuffer();

  // Output header (same format as FingerprintDatabase::SaveToFile).
  BinaryWriter writer;
  S3VCD_RETURN_IF_ERROR(writer.Open(output_path_));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(0x53334442));  // "S3DB"
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(1));           // version
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(static_cast<uint32_t>(fp::kDims)));
  S3VCD_RETURN_IF_ERROR(
      writer.WriteU32(static_cast<uint32_t>(curve_.order())));
  S3VCD_RETURN_IF_ERROR(writer.WriteU64(total_records_));

  // K-way merge of the spilled runs plus the in-memory tail.
  std::vector<std::unique_ptr<RunReader>> runs;
  for (const std::string& path : run_paths_) {
    runs.push_back(std::make_unique<RunReader>(path));
    S3VCD_RETURN_IF_ERROR(runs.back()->Open());
  }
  size_t tail_pos = 0;

  struct HeapEntry {
    BitKey key;
    int source;  // run index, or -1 for the in-memory tail
  };
  auto greater = [](const HeapEntry& a, const HeapEntry& b) {
    return b.key < a.key;
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(greater)>
      heap(greater);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r]->exhausted()) {
      heap.push({runs[r]->key(), static_cast<int>(r)});
    }
  }
  if (tail_pos < buffer_.size()) {
    heap.push({buffer_[tail_pos].key, -1});
  }

  uint8_t buf[internal::kRecordBytes];
  uint64_t written = 0;
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    if (top.source < 0) {
      internal::SerializeRecord(buffer_[tail_pos].record, buf);
      S3VCD_RETURN_IF_ERROR(
          writer.WriteBytes(buf, internal::kRecordBytes));
      ++tail_pos;
      if (tail_pos < buffer_.size()) {
        heap.push({buffer_[tail_pos].key, -1});
      }
    } else {
      RunReader& run = *runs[static_cast<size_t>(top.source)];
      internal::SerializeRecord(run.record(), buf);
      S3VCD_RETURN_IF_ERROR(
          writer.WriteBytes(buf, internal::kRecordBytes));
      S3VCD_RETURN_IF_ERROR(run.Advance());
      if (!run.exhausted()) {
        heap.push({run.key(), top.source});
      }
    }
    ++written;
  }
  if (written != total_records_) {
    return Status::Internal("merge produced a different record count");
  }
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(writer.crc()));
  // Durability before success: the bytes reach stable storage, then the
  // file's directory entry. A crash right after Finish returns OK cannot
  // lose or truncate the database.
  S3VCD_RETURN_IF_ERROR(writer.Sync());
  S3VCD_RETURN_IF_ERROR(writer.Close());
  S3VCD_RETURN_IF_ERROR(SyncDir(DirName(output_path_)));
  return Status::OK();
}

}  // namespace s3vcd::core
