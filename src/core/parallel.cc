#include "core/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>

#include "util/logging.h"

namespace s3vcd::core {

namespace {

// Lazily-created shared pools, one per requested width, reused by every
// ParallelFor call of that width (constructing and joining a pool per call
// would put thread spawn cost on every call). Pools are intentionally
// leaked: workers park on a condition variable when idle, and skipping
// destruction avoids static-teardown join-order hazards.
ThreadPool* SharedPool(int num_threads) {
  static std::mutex* const mutex = new std::mutex();
  static std::map<int, ThreadPool*>* const pools =
      new std::map<int, ThreadPool*>();
  std::lock_guard<std::mutex> lock(*mutex);
  ThreadPool*& pool = (*pools)[num_threads];
  if (pool == nullptr) {
    pool = new ThreadPool(num_threads);
  }
  return pool;
}

}  // namespace

// Shards [0, n) into contiguous chunks and runs `body(first, last)` for
// each on the pool, waiting for this call's own tasks only (the pool may
// be shared with concurrent callers, so ThreadPool::Wait — which waits for
// global quiescence — would oversynchronize).
void ParallelFor(size_t n, int num_threads, ThreadPool* pool,
                 const std::function<void(size_t, size_t)>& body) {
  S3VCD_CHECK(num_threads >= 1);
  if (n == 0) {
    return;
  }
  if (num_threads <= 1 && pool == nullptr) {
    body(0, n);
    return;
  }
  if (pool == nullptr) {
    pool = SharedPool(num_threads);
  }
  const int width = std::max(num_threads, pool->num_threads());
  const size_t shards =
      std::min<size_t>(static_cast<size_t>(width) * 4, n);
  const size_t chunk = (n + shards - 1) / shards;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  // All tasks are counted before any is submitted, so a fast worker can
  // never see pending hit zero early.
  size_t pending = (n + chunk - 1) / chunk;
  for (size_t first = 0; first < n; first += chunk) {
    const size_t last = std::min(n, first + chunk);
    pool->Submit([&, first, last] {
      body(first, last);
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--pending == 0) {
        done_cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return pending == 0; });
}

}  // namespace s3vcd::core
