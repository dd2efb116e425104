#include "core/pseudo_disk.h"

#include <algorithm>

#include "core/database.h"
#include "core/descriptor_block.h"
#include "core/scan_kernel.h"
#include "core/sorted_run.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/timer.h"

namespace s3vcd::core {

namespace {

obs::Counter* const g_io_ops =
    obs::MetricsRegistry::Global().GetCounter("pseudo_disk.io_ops");
obs::Counter* const g_bytes_read =
    obs::MetricsRegistry::Global().GetCounter("pseudo_disk.bytes_read");
obs::Counter* const g_sections_loaded =
    obs::MetricsRegistry::Global().GetCounter("pseudo_disk.sections_loaded");
obs::Counter* const g_records_loaded =
    obs::MetricsRegistry::Global().GetCounter("pseudo_disk.records_loaded");
obs::Counter* const g_records_scanned =
    obs::MetricsRegistry::Global().GetCounter("pseudo_disk.records_scanned");
obs::Counter* const g_batches =
    obs::MetricsRegistry::Global().GetCounter("pseudo_disk.batches");
obs::Histogram* const g_section_load_us =
    obs::MetricsRegistry::Global().GetHistogram(
        "pseudo_disk.section_load_us");

}  // namespace

Result<PseudoDiskSearcher> PseudoDiskSearcher::Open(
    const std::string& db_path, const PseudoDiskOptions& options) {
  if (options.section_depth < 0 ||
      options.section_depth > options.query_depth) {
    return Status::InvalidArgument(
        "section_depth must be in [0, query_depth]");
  }
  // The block filter serves depths [1, D] only (FilterOptions::depth).
  if (options.query_depth < 1 || options.query_depth > kCodeBits) {
    return Status::InvalidArgument("query_depth must be in [1, dims]");
  }
  BinaryReader reader;
  S3VCD_RETURN_IF_ERROR(reader.Open(db_path));
  S3VCD_ASSIGN_OR_RETURN(const uint64_t count, internal::ReadHeader(&reader));

  PseudoDiskSearcher searcher(db_path, options);

  // Streaming metadata pass: code each record and append it to the depth-p
  // prefix table; records themselves are not retained.
  searcher.table_ = PrefixTable(options.query_depth);
  uint8_t buf[internal::kRecordBytes];
  FingerprintRecord rec;
  for (uint64_t i = 0; i < count; ++i) {
    S3VCD_RETURN_IF_ERROR(reader.ReadBytes(buf, internal::kRecordBytes));
    internal::DeserializeRecord(buf, &rec);
    if (!searcher.table_.Append(OrthantCode(rec.descriptor))) {
      return Status::Corruption("database records are not curve-ordered");
    }
  }
  searcher.table_.Finish();
  const uint32_t computed_crc = reader.crc();
  uint32_t stored_crc = 0;
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&stored_crc));
  if (stored_crc != computed_crc) {
    return Status::Corruption("database checksum mismatch");
  }
  S3VCD_RETURN_IF_ERROR(reader.Close());
  return searcher;
}

Status PseudoDiskSearcher::SearchBatch(
    const std::vector<fp::Fingerprint>& queries, const DistortionModel& model,
    std::vector<std::vector<Match>>* results,
    PseudoDiskBatchStats* stats) const {
  S3VCD_TRACE_SPAN("pseudo_disk.search_batch");
  results->assign(queries.size(), {});
  *stats = PseudoDiskBatchStats{};
  stats->num_queries = queries.size();
  if (queries.empty()) {
    return Status::OK();
  }
  g_batches->Increment();

  // Phase 1: filter every query up front (independent of the database).
  const int p = options_.query_depth;
  const BlockFilter filter;
  FilterOptions filter_options;
  filter_options.depth = p;
  filter_options.alpha = options_.alpha;

  // Per query, the record ranges to scan.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> record_ranges(
      queries.size());
  Stopwatch watch;
  {
    S3VCD_TRACE_SPAN("pseudo_disk.filter_queries");
    // One explicit scratch for the whole batch: the arena and boundary
    // tables warm up on the first query and are recycled afterwards.
    SelectionScratch& scratch = ThreadLocalSelectionScratch();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const BlockSelection selection = filter.SelectStatistical(
          queries[qi], model, filter_options, &scratch);
      // Depth-p sections are aligned at the table depth: one table read
      // per bound.
      for (const auto& [begin, end] : selection.ranges) {
        const uint64_t rb = table_.offset(table_.Prefix(begin));
        const uint64_t re = table_.offset(table_.Prefix(end));
        if (rb < re) {
          record_ranges[qi].emplace_back(rb, re);
        }
      }
    }
  }
  stats->filter_seconds = watch.ElapsedSeconds();

  // Phase 2: load the 2^r sections one at a time and refine every query's
  // ranges that intersect the resident section.
  const int r = options_.section_depth;
  const uint64_t sections = uint64_t{1} << r;
  const uint64_t prefixes_per_section = uint64_t{1} << (p - r);
  BinaryReader reader;
  S3VCD_RETURN_IF_ERROR(reader.Open(path_));
  std::vector<uint8_t> buffer;
  // The resident section, in the layout the refinement kernel scans.
  DescriptorBlock section;
  FingerprintRecord rec;
  const RefineSpec spec(RefinementMode::kAll, 0, nullptr);
  std::vector<QueryResult> scans(queries.size());
  for (uint64_t s = 0; s < sections; ++s) {
    const uint64_t sec_first = table_.offset(s * prefixes_per_section);
    const uint64_t sec_last = table_.offset((s + 1) * prefixes_per_section);
    if (sec_first >= sec_last) {
      continue;
    }
    // Does any query need this section?
    bool needed = false;
    for (const auto& ranges : record_ranges) {
      for (const auto& [rb, re] : ranges) {
        if (rb < sec_last && re > sec_first) {
          needed = true;
          break;
        }
      }
      if (needed) {
        break;
      }
    }
    if (!needed) {
      continue;
    }

    watch.Reset();
    const uint64_t n = sec_last - sec_first;
    {
      S3VCD_TRACE_SPAN("pseudo_disk.load_section");
      buffer.resize(n * internal::kRecordBytes);
      S3VCD_RETURN_IF_ERROR(reader.Seek(
          internal::kHeaderBytes + sec_first * internal::kRecordBytes));
      S3VCD_RETURN_IF_ERROR(reader.ReadBytes(buffer.data(), buffer.size()));
      section.Clear();
      section.Reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        internal::DeserializeRecord(
            buffer.data() + i * internal::kRecordBytes, &rec);
        section.AppendRecord(rec);
      }
    }
    const double load_seconds = watch.ElapsedSeconds();
    stats->load_seconds += load_seconds;
    stats->records_loaded += n;
    ++stats->sections_loaded;
    // One Seek + one contiguous ReadBytes = one simulated IO.
    g_io_ops->Increment();
    g_bytes_read->Increment(buffer.size());
    g_sections_loaded->Increment();
    g_records_loaded->Increment(n);
    g_section_load_us->Record(load_seconds * 1e6);

    watch.Reset();
    {
      S3VCD_TRACE_SPAN("pseudo_disk.refine_section");
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        for (const auto& [rb, re] : record_ranges[qi]) {
          const uint64_t lo = std::max(rb, sec_first);
          const uint64_t hi = std::min(re, sec_last);
          if (lo < hi) {
            ScanRecords(queries[qi], section, lo - sec_first, hi - sec_first,
                        spec, &scans[qi]);
          }
        }
      }
    }
    stats->refine_seconds += watch.ElapsedSeconds();
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    stats->records_scanned += scans[qi].stats.records_scanned;
    (*results)[qi] = std::move(scans[qi].matches);
  }
  g_records_scanned->Increment(stats->records_scanned);
  return reader.Close();
}

}  // namespace s3vcd::core
