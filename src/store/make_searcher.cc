#include "store/make_searcher.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/index.h"
#include "core/vamana.h"
#include "store/segment_searcher.h"

namespace s3vcd::store {

namespace {

/// The paper's reference method (Section V-B) as a Searcher of its own:
/// every query is a full linear scan of the database. No public header;
/// construct it as MakeSearcher("seqscan", ...).
class SeqScanSearcher final : public core::Searcher {
 public:
  explicit SeqScanSearcher(core::FingerprintDatabase db) : db_(std::move(db)) {}

  const char* backend_name() const override { return "seqscan"; }

  core::QueryResult BallQuery(const fp::Fingerprint& query,
                              double epsilon) const override {
    return core::ScanAll(db_, query, epsilon);
  }

  core::SearcherStats Stats() const override { return {db_.size()}; }

  uint64_t ApproxBytes() const override { return db_.MemoryBytes(); }

 private:
  core::FingerprintDatabase db_;
};

}  // namespace

Status CheckSearcherBackend(std::string_view name) {
  if (std::ranges::find(kSearcherBackends, name) != kSearcherBackends.end()) {
    return Status::OK();
  }
  std::string names;
  for (const std::string_view backend : kSearcherBackends) {
    names += names.empty() ? "" : ", ";
    names += backend;
  }
  return Status::InvalidArgument("unknown backend '" + std::string(name) +
                                 "'; registered backends: " + names);
}

Result<std::unique_ptr<core::Searcher>> MakeSearcher(
    std::string_view name, core::FingerprintDatabase db,
    const SearcherConfig& config) {
  S3VCD_RETURN_IF_ERROR(CheckSearcherBackend(name));
  if (name == "s3") {
    return std::unique_ptr<core::Searcher>(
        std::make_unique<core::S3Index>(std::move(db)));
  }
  if (name == "seqscan") {
    return std::unique_ptr<core::Searcher>(
        std::make_unique<SeqScanSearcher>(std::move(db)));
  }
  if (name == "segment") {
    SegmentSearcherOptions options;
    options.store_dir = config.segment_store_dir;
    S3VCD_ASSIGN_OR_RETURN(std::unique_ptr<SegmentSearcher> searcher,
                           SegmentSearcher::Open(std::move(db), options));
    return std::unique_ptr<core::Searcher>(std::move(searcher));
  }
  core::VamanaOptions options;
  options.graph_degree = config.vamana_graph_degree;
  options.beam_width = config.vamana_beam_width;
  options.graph_path = config.vamana_graph_path;
  std::vector<core::FingerprintRecord> records;
  records.reserve(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    records.push_back(db.record(i));
  }
  return std::unique_ptr<core::Searcher>(
      std::make_unique<core::VamanaIndex>(std::move(records), options));
}

}  // namespace s3vcd::store
