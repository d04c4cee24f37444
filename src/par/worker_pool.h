// dcfs::par — a small fixed-size work-sharing thread pool.
//
// Batches are handed to workers through the existing lock-free MPSC queue
// (core/lockfree_queue.h): each worker owns one queue (it is the single
// consumer), and parallel_for pushes one batch reference per worker.  Items
// inside a batch are claimed cooperatively: every participant (the workers
// plus the calling thread) first drains its own contiguous partition of the
// index space, then steals ranges from the other partitions — so an uneven
// load (one region full of literals, another full of matches) balances
// itself without any task pre-assignment.  The claim protocol itself lives
// in par/claim.h, instrumented with chk::yield_point() so the deterministic
// schedule explorer can enumerate its interleavings (docs/ANALYSIS.md).
//
// parallel_for is synchronous: it returns only when every item has run and
// every worker has detached from the batch, so batches can live on the
// caller's stack.  The first exception thrown by the body is captured and
// rethrown on the calling thread; the pool stays usable afterwards.
//
// The pool never influences *what* is computed — callers slot results by
// index and merge meters in a fixed order — so kernels built on it stay
// bit-for-bit deterministic for any worker count (see docs/PERFORMANCE.md).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "chk/annotations.h"
#include "chk/lockdep.h"
#include "core/lockfree_queue.h"
#include "obs/obs.h"

namespace dcfs::par {

class WorkerPool {
 public:
  /// Body of a parallel_for: processes items [begin, end).
  using RangeFn = std::function<void(std::size_t begin, std::size_t end)>;

  /// `parallelism` counts the calling thread: N means N-1 workers are
  /// spawned and the caller participates as the N-th lane.  `parallelism`
  /// <= 1 spawns nothing, registers no instruments on `obs`, and
  /// parallel_for degenerates to a plain loop.
  explicit WorkerPool(std::size_t parallelism, obs::Obs* obs = nullptr);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Worker threads owned by the pool (parallelism() - 1).
  [[nodiscard]] std::size_t workers() const noexcept {
    return workers_.size();
  }
  /// Concurrent lanes available to a batch, including the caller.
  [[nodiscard]] std::size_t parallelism() const noexcept {
    return workers_.size() + 1;
  }

  /// Runs fn over [0, n) in claims of up to `grain` items, blocking until
  /// every item completed.  The caller participates.  Rethrows the first
  /// exception thrown by fn; remaining items are skipped once a failure is
  /// recorded, but the batch still runs to completion (accounting-wise) so
  /// the pool is immediately reusable.
  void parallel_for(std::size_t n, std::size_t grain, const RangeFn& fn);

 private:
  struct Batch;

  struct Worker {
    LockFreeQueue<Batch*> queue;  ///< MPSC: pool pushes, worker pops
    std::thread thread;
  };

  void worker_loop(std::size_t worker_index);
  /// Claims and executes ranges of `batch` as participant `lane`.
  void run_batch(Batch& batch, std::size_t lane);

  std::vector<std::unique_ptr<Worker>> workers_;
  chk::Mutex mu_{"par.pool"};   ///< parking lot for idle workers
  std::condition_variable cv_;
  bool stopping_ DCFS_GUARDED_BY(mu_) = false;

  // Instruments; null when observability is disabled.
  obs::Tracer* tracer_ = nullptr;     ///< workers register their own tracks
  obs::Counter* tasks_ = nullptr;     ///< ranges claimed and executed
  obs::Counter* steals_ = nullptr;    ///< ranges claimed from another lane
  obs::Counter* batches_ = nullptr;   ///< parallel_for invocations
  obs::Gauge* depth_ = nullptr;       ///< items of the batch in flight
  obs::Histogram* kernel_us_ = nullptr;  ///< parallel_for wall latency
};

}  // namespace dcfs::par
