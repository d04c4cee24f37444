#include "par/worker_pool.h"

#include <chrono>
#include <cstdio>

#include "par/claim.h"

namespace dcfs::par {

/// One parallel_for invocation.  Lives on the calling thread's stack;
/// parallel_for does not return until every worker detached through
/// `handoff` and every item is accounted by `acct`.  The claim protocol,
/// the completion/error accounting and the detach handoff live in
/// par/claim.h so the deterministic schedule explorer can exercise them
/// (tests/schedule_test.cc).
struct WorkerPool::Batch {
  const RangeFn* fn = nullptr;
  ClaimPlan plan;
  BatchAccounting acct;
  BatchHandoff handoff;
  std::condition_variable done_cv;  ///< pairs with handoff.mu()
};

WorkerPool::WorkerPool(std::size_t parallelism, obs::Obs* obs) {
  const std::size_t worker_count = parallelism > 1 ? parallelism - 1 : 0;
  // A pool without workers runs every batch inline and never reaches its
  // instruments, so it registers none — in particular it leaves alone a
  // par.workers gauge that another pool on the same Obs has set.
  if (obs != nullptr && worker_count > 0) {
    tracer_ = &obs->tracer;
    tasks_ = &obs->registry.counter("par.tasks");
    steals_ = &obs->registry.counter("par.steals");
    batches_ = &obs->registry.counter("par.batches");
    depth_ = &obs->registry.gauge("par.queue_depth");
    kernel_us_ = &obs->registry.histogram("par.kernel_us");
    obs->registry.gauge("par.workers")
        .set(static_cast<std::int64_t>(worker_count));
  }
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Spawn only after the vector is fully built: worker_loop indexes it.
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const chk::LockGuard<chk::Mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void WorkerPool::worker_loop(std::size_t worker_index) {
  Worker& self = *workers_[worker_index];
  if (tracer_ != nullptr) {
    // Own the thread's trace track so spans emitted from pool lanes land on
    // a named per-thread timeline instead of racing on the main track.
    char name[32];
    std::snprintf(name, sizeof(name), "par.worker-%zu", worker_index);
    tracer_->register_thread(name);
  }
  while (true) {
    if (auto job = self.queue.pop()) {
      Batch* batch = *job;
      run_batch(*batch, worker_index);
      // Last worker out wakes the caller; `batch` is dead after this.
      batch->handoff.detach([batch] { batch->done_cv.notify_all(); });
      continue;
    }
    chk::UniqueLock lock(mu_);
    if (stopping_) return;
    if (!self.queue.empty()) continue;  // raced with a push: drain first
    cv_.wait(lock.raw());
  }
}

void WorkerPool::run_batch(Batch& batch, std::size_t lane) {
  claim_ranges(batch.plan, lane,
               [&](std::size_t begin, std::size_t end, bool stolen) {
    const bool completed = batch.acct.execute(begin, end, *batch.fn);
    obs::inc(tasks_);
    if (stolen) obs::inc(steals_);
    if (completed) {
      const chk::LockGuard<chk::Mutex> lock(batch.handoff.mu());
      batch.done_cv.notify_all();
    }
  });
}

void WorkerPool::parallel_for(std::size_t n, std::size_t grain,
                              const RangeFn& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (workers_.empty() || n <= grain) {
    fn(0, n);
    return;
  }

  const auto started = std::chrono::steady_clock::now();
  obs::inc(batches_);
  obs::set(depth_, static_cast<std::int64_t>(n));

  Batch batch;
  batch.fn = &fn;
  batch.plan.reset(n, grain, parallelism());
  batch.acct.reset(n);
  batch.handoff.attach(workers_.size());

  for (auto& worker : workers_) {
    worker->queue.push(&batch);
  }
  {
    // Empty critical section: pairs with the worker's locked empty-check so
    // a push cannot slip between that check and the wait.
    const chk::LockGuard<chk::Mutex> lock(mu_);
  }
  cv_.notify_all();

  run_batch(batch, batch.plan.lanes - 1);  // the caller is the last lane

  batch.handoff.wait(batch.done_cv, [&] { return batch.acct.complete(); });
  obs::set(depth_, 0);
  if (kernel_us_ != nullptr) {
    kernel_us_->observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count()));
  }
  batch.acct.rethrow_if_failed();
}

}  // namespace dcfs::par
