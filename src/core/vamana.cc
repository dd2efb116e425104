// Vamana-style graph ANN backend (DiskANN lineage): a single-shot
// proximity graph built with GreedySearch + alpha-RobustPrune under a hard
// out-degree bound, queried by beam search. Every candidate set — during
// build and during queries — is scored through the batched gather kernels
// of core/scan_kernel.h, so graph traversal rides the same 0-ULP-pinned
// SIMD distance path as the refine scans.
//
// The build is deterministic in (records, options): points are inserted in
// a seeded random order, in fixed-size batches whose greedy searches run
// in parallel against the graph state frozen at batch start (reads only),
// and whose edge updates are applied serially in batch order. Thread count
// therefore never changes the produced graph (pinned by
// tests/backend_parity_test.cc).
#include "core/vamana.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "core/parallel.h"
#include "core/scan_kernel.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace s3vcd::core {

namespace {

constexpr uint32_t kGraphMagic = 0x53335647;  // "S3VG"
constexpr uint32_t kGraphVersion = 1;
// The blob's codec word. Graphs are built over the exact descriptor bytes
// only, so it is always 0; any other value is a mismatch and the graph is
// rebuilt.
constexpr uint32_t kGraphCodecExact = 0;

// Batch width of the parallel build. A fixed constant (not derived from
// the thread count) so batch boundaries — and hence the graph — are
// identical for every build_threads value.
constexpr size_t kBuildBatch = 2048;

bool CandidateLess(const VamanaScratch::Candidate& a,
                   const VamanaScratch::Candidate& b) {
  return a.dist_sq < b.dist_sq || (a.dist_sq == b.dist_sq && a.id < b.id);
}

}  // namespace

VamanaScratch* ThreadLocalVamanaScratch() {
  static thread_local VamanaScratch scratch;
  return &scratch;
}

VamanaIndex::VamanaIndex(std::vector<FingerprintRecord> records,
                         const VamanaOptions& options)
    : options_(options) {
  S3VCD_CHECK(options_.graph_degree >= 1);
  S3VCD_CHECK(options_.build_beam >= 1);
  S3VCD_CHECK(options_.beam_width >= 1);
  S3VCD_CHECK(options_.alpha >= 1.0);
  block_.Reserve(records.size());
  for (const FingerprintRecord& r : records) {
    block_.AppendRecord(r);
  }
  const size_t n = block_.size();
  // Digest of the exact input descriptors: a loaded graph blob only ever
  // pairs with the record set that produced it.
  digest_ = Crc32(block_.descriptors(), n * fp::kDims,
                  static_cast<uint32_t>(n));
  degree_bound_ =
      n > 1 ? static_cast<uint32_t>(std::min<size_t>(
                  static_cast<size_t>(options_.graph_degree), n - 1))
            : 0;
  if (!options_.graph_path.empty()) {
    const Status status = LoadGraph(options_.graph_path);
    if (status.ok()) {
      loaded_from_blob_ = true;
    } else if (status.code() != StatusCode::kNotFound) {
      S3VCD_LOG(INFO) << "vamana graph blob " << options_.graph_path
                      << " not usable (" << status.ToString()
                      << "); rebuilding";
    }
  }
  if (!loaded_from_blob_) {
    Build();
    if (!options_.graph_path.empty()) {
      const Status status = SaveGraph(options_.graph_path);
      if (!status.ok()) {
        S3VCD_LOG(ERROR) << "vamana graph blob save failed: "
                         << status.ToString();
      }
    }
  }
}

std::vector<uint32_t> VamanaIndex::Neighbors(uint32_t node) const {
  S3VCD_CHECK(node < block_.size());
  const uint32_t* row =
      adj_.data() + static_cast<size_t>(node) * degree_bound_;
  return std::vector<uint32_t>(row, row + degree_[node]);
}

// ---- Beam search -------------------------------------------------------

template <typename OnScored>
uint64_t VamanaIndex::BeamSearch(const uint8_t* query_bytes, int beam,
                                 bool collect_visited,
                                 VamanaScratch* scratch,
                                 OnScored&& on_scored) const {
  const size_t n = block_.size();
  if (n == 0) {
    return 0;
  }
  if (scratch->visit_mark.size() != n) {
    scratch->visit_mark.assign(n, 0);
    scratch->epoch = 0;
  }
  if (++scratch->epoch == 0) {  // epoch wrapped: restamp everything
    std::fill(scratch->visit_mark.begin(), scratch->visit_mark.end(), 0);
    scratch->epoch = 1;
  }
  const uint32_t epoch = scratch->epoch;
  auto& pool = scratch->pool;
  pool.clear();
  if (collect_visited) {
    scratch->visited.clear();
  }
  const size_t cap = beam < 1 ? 1 : static_cast<size_t>(beam);
  const GatherScorer scorer(query_bytes, block_.View());

  const auto insert = [&pool, cap](uint32_t dist_sq, uint32_t id) {
    if (pool.size() == cap) {
      const VamanaScratch::Candidate& worst = pool.back();
      if (dist_sq > worst.dist_sq ||
          (dist_sq == worst.dist_sq && id >= worst.id)) {
        return;
      }
    }
    const VamanaScratch::Candidate candidate{dist_sq, id, false};
    const auto pos =
        std::lower_bound(pool.begin(), pool.end(), candidate, CandidateLess);
    pool.insert(pos, candidate);
    if (pool.size() > cap) {
      pool.pop_back();
    }
  };

  scratch->visit_mark[medoid_] = epoch;
  uint32_t entry_dist = 0;
  scorer.Score(&medoid_, 1, &entry_dist);
  on_scored(medoid_, entry_dist);
  insert(entry_dist, medoid_);

  uint64_t expansions = 0;
  auto& ids = scratch->gather_ids;
  auto& dists = scratch->gather_dist;
  while (true) {
    size_t next = pool.size();
    for (size_t i = 0; i < pool.size(); ++i) {
      if (!pool[i].expanded) {
        next = i;
        break;
      }
    }
    if (next == pool.size()) {
      break;
    }
    pool[next].expanded = true;
    const uint32_t node = pool[next].id;
    const uint32_t node_dist = pool[next].dist_sq;
    ++expansions;
    if (collect_visited) {
      scratch->visited.push_back({node_dist, node, true});
    }
    const uint32_t* row =
        adj_.data() + static_cast<size_t>(node) * degree_bound_;
    const uint32_t deg = degree_.empty() ? 0 : degree_[node];
    ids.clear();
    for (uint32_t j = 0; j < deg; ++j) {
      const uint32_t nb = row[j];
      if (scratch->visit_mark[nb] != epoch) {
        scratch->visit_mark[nb] = epoch;
        ids.push_back(nb);
      }
    }
    if (ids.empty()) {
      continue;
    }
    dists.resize(ids.size());
    scorer.Score(ids.data(), ids.size(), dists.data());
    for (size_t j = 0; j < ids.size(); ++j) {
      on_scored(ids[j], dists[j]);
      insert(dists[j], ids[j]);
    }
    // Software-prefetch the next hop: its adjacency row and descriptor
    // line go out now, and its neighborhood's descriptor lines stream
    // inside the next gather call.
    for (size_t i = 0; i < pool.size(); ++i) {
      if (!pool[i].expanded) {
        __builtin_prefetch(
            adj_.data() + static_cast<size_t>(pool[i].id) * degree_bound_, 0,
            3);
        scorer.Prefetch(pool[i].id);
        break;
      }
    }
  }
  return expansions;
}

// ---- Build -------------------------------------------------------------

void VamanaIndex::RobustPrune(uint32_t p, double alpha, const uint8_t* base,
                              std::vector<VamanaScratch::Candidate>* candidates,
                              std::vector<uint32_t>* out) const {
  out->clear();
  std::sort(candidates->begin(), candidates->end(), CandidateLess);
  candidates->erase(
      std::unique(candidates->begin(), candidates->end(),
                  [](const VamanaScratch::Candidate& a,
                     const VamanaScratch::Candidate& b) {
                    return a.id == b.id;
                  }),
      candidates->end());
  const size_t m = candidates->size();
  std::vector<char> removed(m, 0);
  const double alpha_sq = alpha * alpha;
  for (size_t i = 0; i < m && out->size() < degree_bound_; ++i) {
    if (removed[i]) {
      continue;
    }
    const VamanaScratch::Candidate star = (*candidates)[i];
    if (star.id == p) {
      continue;
    }
    out->push_back(star.id);
    const uint8_t* sb = base + static_cast<size_t>(star.id) * fp::kDims;
    for (size_t j = i + 1; j < m; ++j) {
      if (removed[j]) {
        continue;
      }
      const VamanaScratch::Candidate& c = (*candidates)[j];
      const double d_star = static_cast<double>(SquaredDistanceU32(
          sb, base + static_cast<size_t>(c.id) * fp::kDims));
      if (alpha_sq * d_star <= static_cast<double>(c.dist_sq)) {
        removed[j] = 1;
      }
    }
  }
}

void VamanaIndex::Build() {
  const size_t n = block_.size();
  degree_.assign(n, 0);
  adj_.assign(n * degree_bound_, 0);
  medoid_ = 0;
  if (n <= 1 || degree_bound_ == 0) {
    return;
  }

  const uint8_t* base = block_.descriptors();

  // Entry point: the record nearest the component-wise centroid (the
  // cheap deterministic stand-in for the exact medoid).
  {
    std::array<double, fp::kDims> mean{};
    for (size_t i = 0; i < n; ++i) {
      const uint8_t* d = base + i * fp::kDims;
      for (int j = 0; j < fp::kDims; ++j) {
        mean[j] += d[j];
      }
    }
    for (int j = 0; j < fp::kDims; ++j) {
      mean[j] /= static_cast<double>(n);
    }
    double best = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint8_t* d = base + i * fp::kDims;
      double dist = 0;
      for (int j = 0; j < fp::kDims; ++j) {
        const double diff = static_cast<double>(d[j]) - mean[j];
        dist += diff * diff;
      }
      if (i == 0 || dist < best) {
        best = dist;
        medoid_ = static_cast<uint32_t>(i);
      }
    }
  }

  Rng rng(options_.seed);
  // Initial random graph: up to R distinct random out-neighbors per node,
  // so the first greedy searches have edges to walk.
  for (size_t i = 0; i < n; ++i) {
    uint32_t* row = adj_.data() + i * degree_bound_;
    uint32_t deg = 0;
    for (uint32_t attempt = 0;
         attempt < 2 * degree_bound_ && deg < degree_bound_; ++attempt) {
      const uint32_t j = static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      if (j == i) {
        continue;
      }
      bool present = false;
      for (uint32_t t = 0; t < deg; ++t) {
        if (row[t] == j) {
          present = true;
          break;
        }
      }
      if (!present) {
        row[deg++] = j;
      }
    }
    degree_[i] = deg;
  }

  // Seeded random insertion order.
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) {
    perm[i] = static_cast<uint32_t>(i);
  }
  for (size_t i = n - 1; i > 0; --i) {
    const size_t j = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(i)));
    std::swap(perm[i], perm[j]);
  }

  int threads = options_.build_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(1, threads);
  const int build_beam =
      std::max(options_.build_beam, static_cast<int>(degree_bound_));

  const auto add_backlink = [this, base](uint32_t q, uint32_t p,
                                         double alpha) {
    if (q == p) {
      return;
    }
    uint32_t* row = adj_.data() + static_cast<size_t>(q) * degree_bound_;
    const uint32_t deg = degree_[q];
    for (uint32_t t = 0; t < deg; ++t) {
      if (row[t] == p) {
        return;
      }
    }
    if (deg < degree_bound_) {
      row[deg] = p;
      degree_[q] = deg + 1;
      return;
    }
    // Overflow: alpha-prune the neighborhood plus the new backlink.
    const uint8_t* qb = base + static_cast<size_t>(q) * fp::kDims;
    std::vector<VamanaScratch::Candidate> cand;
    cand.reserve(deg + 1);
    for (uint32_t t = 0; t < deg; ++t) {
      cand.push_back(
          {SquaredDistanceU32(
               qb, base + static_cast<size_t>(row[t]) * fp::kDims),
           row[t], false});
    }
    cand.push_back(
        {SquaredDistanceU32(qb, base + static_cast<size_t>(p) * fp::kDims),
         p, false});
    std::vector<uint32_t> pruned;
    RobustPrune(q, alpha, base, &cand, &pruned);
    degree_[q] = static_cast<uint32_t>(pruned.size());
    std::copy(pruned.begin(), pruned.end(), row);
  };

  // Two passes over the seeded insertion order (the standard Vamana
  // schedule): pass 1 at alpha = 1 lays short-range edges, pass 2 at the
  // configured alpha re-prunes with diversity.
  const double pass_alphas[2] = {1.0, options_.alpha};
  for (const double pass_alpha : pass_alphas) {
    for (size_t start = 0; start < n; start += kBuildBatch) {
      const size_t count = std::min(kBuildBatch, n - start);
      std::vector<std::vector<uint32_t>> pruned(count);
      // Parallel phase: greedy-search + prune every point of the batch
      // against the graph frozen at batch start (reads only).
      ParallelFor(count, threads, nullptr, [&](size_t first, size_t last) {
        VamanaScratch* scratch = ThreadLocalVamanaScratch();
        for (size_t b = first; b < last; ++b) {
          const uint32_t p = perm[start + b];
          const uint8_t* pb = base + static_cast<size_t>(p) * fp::kDims;
          BeamSearch(pb, build_beam, /*collect_visited=*/true, scratch,
                     [](uint32_t, uint32_t) {});
          std::vector<VamanaScratch::Candidate> cand = scratch->visited;
          const uint32_t* row =
              adj_.data() + static_cast<size_t>(p) * degree_bound_;
          for (uint32_t t = 0; t < degree_[p]; ++t) {
            cand.push_back(
                {SquaredDistanceU32(
                     pb, base + static_cast<size_t>(row[t]) * fp::kDims),
                 row[t], false});
          }
          RobustPrune(p, pass_alpha, base, &cand, &pruned[b]);
        }
      });
      // Serial apply phase, in batch order: new out-edges, then pruned
      // backlinks — deterministic regardless of the fan-out above.
      for (size_t b = 0; b < count; ++b) {
        const uint32_t p = perm[start + b];
        uint32_t* row = adj_.data() + static_cast<size_t>(p) * degree_bound_;
        degree_[p] = static_cast<uint32_t>(pruned[b].size());
        std::copy(pruned[b].begin(), pruned[b].end(), row);
        for (const uint32_t q : pruned[b]) {
          add_backlink(q, p, pass_alpha);
        }
      }
    }
  }
}

// ---- Queries -----------------------------------------------------------

QueryResult VamanaIndex::RangeQueryImpl(const fp::Fingerprint& query,
                                        double epsilon, int beam) const {
  QueryResult result;
  if (block_.empty()) {
    return result;
  }
  Stopwatch watch;
  const double r = std::max(0.0, epsilon);
  const double radius_sq = r * r;
  VamanaScratch* scratch = ThreadLocalVamanaScratch();
  uint64_t scored = 0;
  const uint64_t expansions = BeamSearch(
      query.data(), beam, /*collect_visited=*/false, scratch,
      [&](uint32_t id, uint32_t dist_sq) {
        ++scored;
        const double d_sq = static_cast<double>(dist_sq);
        if (d_sq > radius_sq) {
          return;
        }
        result.matches.push_back({block_.id(id), block_.time_code(id),
                                  static_cast<float>(std::sqrt(d_sq)),
                                  block_.x(id), block_.y(id)});
      });
  result.stats.records_scanned = scored;
  result.stats.nodes_visited = expansions;
  result.stats.refine_ns = watch.ElapsedNanos();
  return result;
}

QueryResult VamanaIndex::RangeQueryWithBeam(const fp::Fingerprint& query,
                                            double epsilon, int beam) const {
  QueryResult result = RangeQueryImpl(query, epsilon, beam);
  RecordQueryMetrics(QueryKind::kRange, result.stats, result.matches.size());
  return result;
}

QueryResult VamanaIndex::BallQuery(const fp::Fingerprint& query,
                                   double epsilon) const {
  return RangeQueryImpl(query, epsilon, options_.beam_width);
}

SearcherStats VamanaIndex::Stats() const {
  SearcherStats stats;
  stats.records = block_.size();
  return stats;
}

uint64_t VamanaIndex::ApproxBytes() const {
  return adj_.size() * sizeof(uint32_t) +
         degree_.size() * sizeof(uint32_t) + block_.MemoryBytes();
}

// ---- Graph blob --------------------------------------------------------

Status VamanaIndex::SaveGraph(const std::string& path) const {
  BinaryWriter writer;
  S3VCD_RETURN_IF_ERROR(writer.Open(path));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(kGraphMagic));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(kGraphVersion));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(fp::kDims));
  S3VCD_RETURN_IF_ERROR(writer.WriteU64(block_.size()));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(degree_bound_));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(medoid_));
  S3VCD_RETURN_IF_ERROR(
      writer.WriteU32(static_cast<uint32_t>(options_.graph_degree)));
  S3VCD_RETURN_IF_ERROR(
      writer.WriteU32(static_cast<uint32_t>(options_.build_beam)));
  S3VCD_RETURN_IF_ERROR(writer.WriteDouble(options_.alpha));
  S3VCD_RETURN_IF_ERROR(writer.WriteU64(options_.seed));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(kGraphCodecExact));
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(digest_));
  S3VCD_RETURN_IF_ERROR(
      writer.WriteBytes(degree_.data(), degree_.size() * sizeof(uint32_t)));
  S3VCD_RETURN_IF_ERROR(
      writer.WriteBytes(adj_.data(), adj_.size() * sizeof(uint32_t)));
  const uint32_t crc = writer.crc();
  S3VCD_RETURN_IF_ERROR(writer.WriteU32(crc));
  S3VCD_RETURN_IF_ERROR(writer.Sync());
  return writer.Close();
}

Status VamanaIndex::LoadGraph(const std::string& path) {
  BinaryReader reader;
  Status open = reader.Open(path);
  if (!open.ok()) {
    return Status::NotFound("no vamana graph blob at " + path);
  }
  uint32_t magic = 0, version = 0, dims = 0;
  uint64_t count = 0;
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&magic));
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (magic != kGraphMagic || version != kGraphVersion) {
    return Status::Corruption("bad vamana graph magic/version");
  }
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&dims));
  S3VCD_RETURN_IF_ERROR(reader.ReadU64(&count));
  uint32_t bound = 0, medoid = 0, graph_degree = 0, build_beam = 0;
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&bound));
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&medoid));
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&graph_degree));
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&build_beam));
  double alpha = 0;
  uint64_t seed = 0;
  uint32_t codec = 0, digest = 0;
  S3VCD_RETURN_IF_ERROR(reader.ReadDouble(&alpha));
  S3VCD_RETURN_IF_ERROR(reader.ReadU64(&seed));
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&codec));
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&digest));
  if (dims != static_cast<uint32_t>(fp::kDims) || count != block_.size() ||
      bound != degree_bound_ ||
      graph_degree != static_cast<uint32_t>(options_.graph_degree) ||
      build_beam != static_cast<uint32_t>(options_.build_beam) ||
      alpha != options_.alpha || seed != options_.seed ||
      codec != kGraphCodecExact ||
      digest != digest_) {
    return Status::FailedPrecondition(
        "vamana graph blob does not match the records/options");
  }
  if (count > 0 && medoid >= count) {
    return Status::Corruption("vamana graph medoid out of range");
  }
  std::vector<uint32_t> degree(count);
  std::vector<uint32_t> adj(count * bound);
  S3VCD_RETURN_IF_ERROR(
      reader.ReadBytes(degree.data(), degree.size() * sizeof(uint32_t)));
  S3VCD_RETURN_IF_ERROR(
      reader.ReadBytes(adj.data(), adj.size() * sizeof(uint32_t)));
  const uint32_t computed = reader.crc();
  uint32_t stored = 0;
  S3VCD_RETURN_IF_ERROR(reader.ReadU32(&stored));
  if (stored != computed) {
    return Status::Corruption("vamana graph blob checksum mismatch");
  }
  for (size_t i = 0; i < count; ++i) {
    if (degree[i] > bound) {
      return Status::Corruption("vamana graph degree out of range");
    }
    const uint32_t* row = adj.data() + i * bound;
    for (uint32_t t = 0; t < degree[i]; ++t) {
      if (row[t] >= count) {
        return Status::Corruption("vamana graph neighbor out of range");
      }
    }
  }
  medoid_ = medoid;
  degree_ = std::move(degree);
  adj_ = std::move(adj);
  return Status::OK();
}

}  // namespace s3vcd::core
