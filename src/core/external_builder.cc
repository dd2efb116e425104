#include "core/external_builder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>

#include "core/sorted_run.h"
#include "util/io.h"
#include "util/logging.h"

namespace s3vcd::core {

namespace {

constexpr uint32_t kRunMagic = 0x53325255;  // "S2RU"
// Run record layout: code + serialized record. Runs are temporaries read
// back by the host that wrote them, so the code keeps its native layout.
constexpr size_t kCodeBytes = sizeof(uint32_t);
constexpr size_t kRunRecordBytes = kCodeBytes + internal::kRecordBytes;

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
  uint32_t code() const { return code_; }
  const FingerprintRecord& record() const { return record_; }

  Status Advance() {
    if (remaining_ == 0) {
      exhausted_ = true;
      return reader_.Close();
    }
    uint8_t buf[kRunRecordBytes];
    S3VCD_RETURN_IF_ERROR(reader_.ReadBytes(buf, kRunRecordBytes));
    std::memcpy(&code_, buf, kCodeBytes);
    internal::DeserializeRecord(buf + kCodeBytes, &record_);
    --remaining_;
    return Status::OK();
  }

 private:
  std::string path_;
  BinaryReader reader_;
  uint64_t remaining_ = 0;
  bool exhausted_ = false;
  uint32_t code_ = 0;
  FingerprintRecord record_;
};

}  // namespace

ExternalDatabaseBuilder::ExternalDatabaseBuilder(
    std::string output_path, const ExternalBuilderOptions& options)
    : output_path_(std::move(output_path)), options_(options) {
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
  std::stable_sort(buffer_.begin(), buffer_.end(),
                   [](const CodedRecord& a, const CodedRecord& b) {
                     return a.code < b.code;
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
  for (const CodedRecord& cr : buffer_) {
    std::memcpy(buf, &cr.code, kCodeBytes);
    internal::SerializeRecord(cr.record, buf + kCodeBytes);
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
  buffer_.push_back(
      {OrthantCode(fingerprint), {fingerprint, id, time_code, x, y}});
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

  BinaryWriter writer;
  S3VCD_RETURN_IF_ERROR(writer.Open(output_path_));
  S3VCD_RETURN_IF_ERROR(internal::WriteHeader(&writer, total_records_));

  // K-way merge of the spilled runs plus the in-memory tail, the newest
  // arrivals. A heap entry is (code, source): code ties go to the older
  // source, so records keep arrival order within a code.
  std::vector<std::unique_ptr<RunReader>> runs;
  for (const std::string& path : run_paths_) {
    runs.push_back(std::make_unique<RunReader>(path));
    S3VCD_RETURN_IF_ERROR(runs.back()->Open());
  }
  const size_t tail = runs.size();  // the tail's source index
  size_t tail_pos = 0;

  using HeapEntry = std::pair<uint32_t, size_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r]->exhausted()) {
      heap.push({runs[r]->code(), r});
    }
  }
  if (tail_pos < buffer_.size()) {
    heap.push({buffer_[tail_pos].code, tail});
  }

  uint8_t buf[internal::kRecordBytes];
  uint64_t written = 0;
  while (!heap.empty()) {
    const size_t source = heap.top().second;
    heap.pop();
    if (source == tail) {
      internal::SerializeRecord(buffer_[tail_pos].record, buf);
      S3VCD_RETURN_IF_ERROR(
          writer.WriteBytes(buf, internal::kRecordBytes));
      ++tail_pos;
      if (tail_pos < buffer_.size()) {
        heap.push({buffer_[tail_pos].code, tail});
      }
    } else {
      RunReader& run = *runs[source];
      internal::SerializeRecord(run.record(), buf);
      S3VCD_RETURN_IF_ERROR(
          writer.WriteBytes(buf, internal::kRecordBytes));
      S3VCD_RETURN_IF_ERROR(run.Advance());
      if (!run.exhausted()) {
        heap.push({run.code(), source});
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
