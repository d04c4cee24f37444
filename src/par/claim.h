// dcfs::par — the cooperative range-claim protocol behind WorkerPool.
//
// A batch partitions [0, n) into one contiguous slice per lane, with one
// atomic claim cursor per slice.  Every participant drains its own slice
// in grain-sized claims, then steals leftovers from the other slices — an
// uneven load balances itself without task pre-assignment.  The protocol
// lives here, outside WorkerPool, so the deterministic schedule explorer
// (tests/schedule_test.cc) can drive the *same* code the pool runs and
// prove its invariants (every index claimed exactly once, accounting
// completes even when the body throws) over enumerated interleavings
// instead of TSan luck.  chk::yield_point() marks the racy steps.
//
// BatchHandoff is the batch's last step: workers detach and the caller
// waits until it may destroy the batch.  It lives here for the same
// reason — the explorer enumerates the detach/wait interleavings.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <utility>
#include <vector>

#include "chk/annotations.h"
#include "chk/lockdep.h"
#include "chk/sched.h"

namespace dcfs::par {

/// The shared claim state of one batch: per-lane cursors (cache-line
/// separated — lanes hammer their own and only touch a foreign one when
/// stealing) over a contiguous partition of [0, n).
struct ClaimPlan {
  struct alignas(64) Cursor {
    std::atomic<std::size_t> next{0};
  };

  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t lanes = 1;
  std::vector<Cursor> cursor;
  std::vector<std::size_t> lane_begin;  ///< partition [lane_begin, lane_end)
  std::vector<std::size_t> lane_end;

  ClaimPlan() = default;
  ClaimPlan(std::size_t n_, std::size_t grain_, std::size_t lanes_) {
    reset(n_, grain_, lanes_);
  }

  void reset(std::size_t n_, std::size_t grain_, std::size_t lanes_) {
    n = n_;
    grain = grain_ == 0 ? 1 : grain_;
    lanes = lanes_ == 0 ? 1 : lanes_;
    cursor = std::vector<Cursor>(lanes);
    lane_begin.resize(lanes);
    lane_end.resize(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      lane_begin[lane] = lane * n / lanes;
      lane_end[lane] = (lane + 1) * n / lanes;
      cursor[lane].next.store(lane_begin[lane], std::memory_order_relaxed);
    }
  }
};

/// Claims ranges of `plan` as participant `lane`: own slice first, then
/// the other slices' leftovers.  Invokes fn(begin, end, stolen) for every
/// claimed range.  Ranges never overlap across concurrent participants
/// and together cover [0, n) exactly once.
template <typename Fn>
void claim_ranges(ClaimPlan& plan, std::size_t lane, Fn&& fn) {
  for (std::size_t offset = 0; offset < plan.lanes; ++offset) {
    const std::size_t q = (lane + offset) % plan.lanes;
    const std::size_t end = plan.lane_end[q];
    while (true) {
      chk::yield_point();  // racy step: about to race on a foreign cursor
      const std::size_t begin =
          plan.cursor[q].next.fetch_add(plan.grain, std::memory_order_relaxed);
      if (begin >= end) break;
      chk::yield_point();  // racy step: claimed but not yet executed
      fn(begin, std::min(begin + plan.grain, end), /*stolen=*/q != lane);
    }
  }
}

/// Exactly-once completion accounting plus first-error capture for one
/// batch.  Once a failure is recorded remaining ranges are skipped, but
/// every range is still *accounted*, so done() reaches n and the pool is
/// immediately reusable.
class BatchAccounting {
 public:
  explicit BatchAccounting(std::size_t n = 0) : n_(n) {}

  void reset(std::size_t n) DCFS_EXCLUDES(error_mu_) {
    n_ = n;
    done_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    // Under error_mu_ like every other error_ access: a stale worker from a
    // previous batch could still be in execute()'s catch when the caller
    // recycles the accounting (the annotation sweep flagged the bare write).
    const chk::LockGuard<chk::Mutex> lock(error_mu_);
    error_ = nullptr;
  }

  /// Runs body(begin, end) unless a failure is already recorded; accounts
  /// [begin, end) either way.  Returns true when this call completed the
  /// batch (done() reached n) — the caller owns waking any waiters.
  template <typename Body>
  bool execute(std::size_t begin, std::size_t end, Body&& body) {
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        body(begin, end);
      } catch (...) {
        const chk::LockGuard<chk::Mutex> lock(error_mu_);
        if (error_ == nullptr) error_ = std::current_exception();
        failed_.store(true, std::memory_order_relaxed);
      }
    }
    const std::size_t width = end - begin;
    return done_.fetch_add(width, std::memory_order_acq_rel) + width == n_;
  }

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t done() const noexcept {
    return done_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool complete() const noexcept { return done() == n_; }
  [[nodiscard]] bool failed() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }

  /// Rethrows the first captured error, if any.  Call only after the batch
  /// completed.  The pointer is copied out under error_mu_ (not just the
  /// acq_rel accounting fence) and rethrown outside the lock.
  void rethrow_if_failed() DCFS_EXCLUDES(error_mu_) {
    std::exception_ptr error;
    {
      const chk::LockGuard<chk::Mutex> lock(error_mu_);
      error = error_;
    }
    if (error != nullptr) std::rethrow_exception(error);
  }

 private:
  std::size_t n_ = 0;  ///< set before the batch is published, then read-only
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_ DCFS_GUARDED_BY(error_mu_);
  chk::Mutex error_mu_{"par.batch_error"};
};

/// The worker-detach / caller-wait handoff that ends one batch.  The batch
/// lives on the caller's stack, so the caller may destroy it as soon as its
/// wait predicate holds, and every worker access to the batch must come
/// before that point.  Workers therefore detach *under* the handoff mutex,
/// and the last one notifies before unlocking: once the caller, holding the
/// same mutex, sees every worker detached, none of them touches the batch
/// again.  Decrementing before taking the lock would let the caller return
/// in between and destroy the mutex the last worker is about to lock
/// (tests/schedule_test.cc enumerates both orderings).
class BatchHandoff {
 public:
  /// Caller, before publishing the batch: `workers` will each detach once.
  void attach(std::size_t workers) DCFS_EXCLUDES(mu_) {
    const chk::LockGuard<chk::Mutex> lock(mu_);
    attached_ = workers;
  }

  /// Worker, once it is done with the batch.  `notify_last` runs under the
  /// lock when this worker is the last to detach.  The worker must not
  /// touch the batch after this returns.
  template <typename Notify>
  void detach(Notify&& notify_last) DCFS_EXCLUDES(mu_) {
    chk::yield_point();  // racy step: the caller may be checking right now
    const chk::LockGuard<chk::Mutex> lock(mu_);
    if (--attached_ == 0) notify_last();
  }

  /// Caller: blocks on `cv` until ready() holds and every worker detached;
  /// the batch may be destroyed when this returns.  Whoever makes ready()
  /// true must notify `cv` while holding mu().
  template <typename Ready>
  void wait(std::condition_variable& cv, Ready&& ready) DCFS_EXCLUDES(mu_) {
    chk::UniqueLock lock(mu_);
    while (!(ready() && attached_ == 0)) cv.wait(lock.raw());
  }

  /// Non-blocking wait(): true when the batch may be destroyed.
  template <typename Ready>
  [[nodiscard]] bool try_wait(Ready&& ready) DCFS_EXCLUDES(mu_) {
    const chk::LockGuard<chk::Mutex> lock(mu_);
    return ready() && attached_ == 0;
  }

  /// The mutex every wakeup of the caller pairs with.
  [[nodiscard]] chk::Mutex& mu() DCFS_RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  chk::Mutex mu_{"par.batch"};
  std::size_t attached_ DCFS_GUARDED_BY(mu_) = 0;
};

}  // namespace dcfs::par
