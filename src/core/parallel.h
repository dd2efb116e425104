#ifndef S3VCD_CORE_PARALLEL_H_
#define S3VCD_CORE_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "util/thread_pool.h"

namespace s3vcd::core {

/// Runs `body(first, last)` over contiguous shards of [0, n) on
/// `num_threads` workers, for embarrassingly parallel phases (the vamana
/// graph build runs its per-batch greedy searches through it; batched
/// queries fan out through service::ShardedSearcher instead). A
/// caller-owned `pool` is used directly (its width then governs the
/// parallelism); with pool == nullptr and num_threads > 1 the
/// lazily-created shared pool of this width is reused across calls, so
/// thread spawn cost is paid once per width (regression-tested via
/// ThreadPool::TotalPoolsCreated). With num_threads = 1 and no pool the
/// body runs inline. Concurrent callers may share a pool; each call waits
/// only for its own shards. `body` must be safe to invoke concurrently on
/// disjoint shards.
void ParallelFor(size_t n, int num_threads, ThreadPool* pool,
                 const std::function<void(size_t, size_t)>& body);

}  // namespace s3vcd::core

#endif  // S3VCD_CORE_PARALLEL_H_
