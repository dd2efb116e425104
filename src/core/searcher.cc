#include "core/searcher.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/index.h"
#include "core/scan_kernel.h"
#include "core/vamana.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/timer.h"

namespace s3vcd::core {

void Searcher::ScanSelection(const fp::Fingerprint& /*query*/,
                             const BlockSelection& /*selection*/,
                             RefinementMode /*mode*/, double /*radius*/,
                             const DistortionModel* /*model*/,
                             QueryResult* /*result*/) const {
  // Callers must check selection_filter() != nullptr before asking for a
  // selection scan; backends without block structure cannot honor one.
  S3VCD_CHECK(selection_filter() != nullptr);
}

double EqualExpectationRadius(const DistortionModel& model, double alpha) {
  double acc = 0;
  for (int j = 0; j < fp::kDims; ++j) {
    const double scale = model.ComponentScale(j);
    acc += scale * scale;
  }
  const double sigma_rms = std::sqrt(acc / fp::kDims);
  return ChiNormDistribution(fp::kDims, sigma_rms).Quantile(alpha);
}

namespace {

/// The paper's reference method (Section V-B) as a Searcher of its own:
/// every query is a full linear scan of the database. Registry-only — no
/// public header; construct it as SearcherRegistry "seqscan".
class SeqScanSearcher final : public Searcher {
 public:
  explicit SeqScanSearcher(FingerprintDatabase db) : db_(std::move(db)) {}

  const char* backend_name() const override { return "seqscan"; }

  QueryResult StatQuery(const fp::Fingerprint& query,
                        const DistortionModel& model,
                        const QueryOptions& options) const override {
    QueryResult result = Scan(
        query, EqualExpectationRadius(model, options.filter.alpha));
    RecordQueryMetrics(QueryKind::kStatistical, result.stats,
                       result.matches.size());
    return result;
  }

  QueryResult RangeQuery(const fp::Fingerprint& query, double epsilon,
                         int /*depth*/) const override {
    QueryResult result = Scan(query, epsilon);
    RecordQueryMetrics(QueryKind::kSequentialScan, result.stats,
                       result.matches.size());
    return result;
  }

  SearcherStats Stats() const override { return {db_.size(), 0}; }

  uint64_t ApproxBytes() const override { return db_.MemoryBytes(); }

 private:
  QueryResult Scan(const fp::Fingerprint& query, double epsilon) const {
    QueryResult result;
    Stopwatch watch;
    const RefineSpec spec(RefinementMode::kRadiusFilter, epsilon, nullptr);
    ScanRecords(query, db_.block(), 0, db_.size(), spec, &result);
    result.stats.refine_ns = watch.ElapsedNanos();
    result.stats.refine_seconds = result.stats.refine_ns * 1e-9;
    return result;
  }

  FingerprintDatabase db_;
};

std::vector<FingerprintRecord> CopyRecords(const FingerprintDatabase& db) {
  std::vector<FingerprintRecord> records;
  records.reserve(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    records.push_back(db.record(i));
  }
  return records;
}

}  // namespace

SearcherRegistry::SearcherRegistry() {
  Register("s3", [](FingerprintDatabase db, const SearcherConfig&)
               -> std::unique_ptr<Searcher> {
    return std::make_unique<S3Index>(std::move(db));
  });
  Register("seqscan", [](FingerprintDatabase db, const SearcherConfig&)
               -> std::unique_ptr<Searcher> {
    return std::make_unique<SeqScanSearcher>(std::move(db));
  });
  Register("vamana", [](FingerprintDatabase db, const SearcherConfig& config)
               -> std::unique_ptr<Searcher> {
    VamanaOptions options;
    options.graph_degree = config.vamana_graph_degree;
    options.beam_width = config.vamana_beam_width;
    options.graph_path = config.vamana_graph_path;
    if (!DescriptorCodecFromName(config.vamana_codec, &options.codec)) {
      S3VCD_LOG(ERROR) << "unknown vamana codec '" << config.vamana_codec
                       << "'; known codecs: " << DescriptorCodecNamesCsv();
      return nullptr;
    }
    return std::make_unique<VamanaIndex>(CopyRecords(db), options);
  });
}

SearcherRegistry& SearcherRegistry::Global() {
  static SearcherRegistry* const registry = new SearcherRegistry();
  return *registry;
}

void SearcherRegistry::Register(const std::string& name, Factory factory) {
  S3VCD_CHECK(factory != nullptr);
  factories_[name] = std::move(factory);
}

bool SearcherRegistry::Contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> SearcherRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) {
    names.push_back(name);
  }
  return names;  // std::map iteration is already sorted
}

std::string SearcherRegistry::NamesCsv() const {
  std::string csv;
  for (const std::string& name : Names()) {
    if (!csv.empty()) {
      csv += ", ";
    }
    csv += name;
  }
  return csv;
}

Result<std::unique_ptr<Searcher>> SearcherRegistry::Create(
    const std::string& name, FingerprintDatabase db,
    const SearcherConfig& config) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    return Status::InvalidArgument("unknown searcher backend '" + name +
                                   "'; registered backends: " + NamesCsv());
  }
  std::unique_ptr<Searcher> searcher = it->second(std::move(db), config);
  if (searcher == nullptr) {
    // Factories signal construction failure by returning null (and logging
    // the cause); never hand a null Searcher to the caller as "ok".
    return Status::Internal("construction of searcher backend '" + name +
                            "' failed (see log for the cause)");
  }
  return searcher;
}

}  // namespace s3vcd::core
