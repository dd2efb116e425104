#include "spans.h"

#include <cstdio>

#include "util/logging.h"

namespace s3vcd::e2e {

uint64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

size_t SpanLog::Open(const char* name, uint64_t id) {
  const size_t parent = open_.empty() ? kNone : open_.back();
  const uint64_t now = NowNs();
  spans_.push_back({name, id, parent, now, now});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::Close(size_t index) {
  S3VCD_CHECK(!open_.empty() && open_.back() == index);
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

size_t SpanLog::Add(const char* name, uint64_t id, size_t parent,
                    uint64_t start_ns, uint64_t end_ns) {
  spans_.push_back({name, id, parent, start_ns, end_ns});
  return spans_.size() - 1;
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += (spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    if (spans_[i].parent != kNone) {
      self[spans_[i].parent] -= (spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    }
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu}}",
                 i == 0 ? "" : ",", s.name, s.start_ns * 1e-3,
                 (s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace s3vcd::e2e
