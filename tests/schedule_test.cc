// Deterministic schedule exploration (dcfs::chk::Scheduler/Explorer) over
// the project's lock-free building blocks:
//
//  * core/lockfree_queue.h — MPSC linearizability: per-producer FIFO and
//    exactly-once delivery across enumerated interleavings of the
//    publication window.
//  * par/claim.h — the WorkerPool cursor-steal protocol: every index
//    claimed exactly once, steals attributed correctly, and
//    BatchAccounting's completion/first-error invariants, all under
//    chosen (not lucky) schedules.
//  * par/claim.h BatchHandoff — the worker-detach / caller-wait handoff
//    that ends a batch: no worker touches the batch after the caller may
//    destroy it.  The pre-fix ordering is replayed next to it and must be
//    caught.
//
// With -DDCFS_CHK=OFF yield_point() compiles away, each logical thread
// runs atomically, and the interleaving-coverage assertions are
// meaningless — those tests skip themselves.

#include "chk/sched.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chk/lockdep.h"
#include "core/lockfree_queue.h"
#include "par/claim.h"

namespace dcfs::chk {
namespace {

/// One complete queue run under `choose`: two producers race their pushes
/// against a bounded consumer, then the main thread drains what is left
/// and checks exactly-once delivery plus per-producer FIFO order.
Scheduler::Trace queue_run(const Scheduler::ChoiceFn& choose) {
  LockFreeQueue<int> queue;
  std::vector<int> seen;

  Scheduler scheduler;
  scheduler.add_thread([&queue] {
    queue.push(1);
    queue.push(2);
  });
  scheduler.add_thread([&queue] { queue.push(101); });
  scheduler.add_thread([&queue, &seen] {
    for (int i = 0; i < 3; ++i) {
      if (const std::optional<int> v = queue.pop()) seen.push_back(*v);
    }
  });
  const Scheduler::Trace trace = scheduler.run(choose);

  // The consumer is bounded (so every schedule terminates); drain the
  // rest synchronously.  Pop order is preserved, so `seen` stays a valid
  // linearization.
  while (const std::optional<int> v = queue.pop()) seen.push_back(*v);

  std::vector<int> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  if (sorted != std::vector<int>{1, 2, 101}) {
    throw std::logic_error("queue lost or duplicated a value");
  }
  const auto pos = [&seen](int v) {
    return std::find(seen.begin(), seen.end(), v) - seen.begin();
  };
  if (pos(1) > pos(2)) {
    throw std::logic_error("per-producer FIFO order violated");
  }
  return trace;
}

TEST(ScheduleTest, QueueLinearizableOverEnumeratedInterleavings) {
  if (!enabled()) GTEST_SKIP() << "yield points compiled out (DCFS_CHK=OFF)";
  // Acceptance: >= 1000 distinct interleavings, deterministically.  Every
  // enumerate() run is a distinct schedule by construction; queue_run
  // throws (failing the test) if any of them breaks linearizability.
  const std::size_t runs = Explorer::enumerate(queue_run, 1500);
  EXPECT_GE(runs, 1000u);
}

TEST(ScheduleTest, EnumerationIsDeterministic) {
  if (!enabled()) GTEST_SKIP() << "yield points compiled out (DCFS_CHK=OFF)";
  const auto keys_of = [](std::size_t max_runs) {
    std::vector<std::string> keys;
    Explorer::enumerate(
        [&keys](const Scheduler::ChoiceFn& choose) {
          const Scheduler::Trace trace = queue_run(choose);
          keys.push_back(trace.key());
          return trace;
        },
        max_runs);
    return keys;
  };
  const std::vector<std::string> first = keys_of(48);
  const std::vector<std::string> second = keys_of(48);
  EXPECT_EQ(first, second);
  // Distinct by construction.
  const std::set<std::string> unique(first.begin(), first.end());
  EXPECT_EQ(unique.size(), first.size());
}

TEST(ScheduleTest, SeededSamplingIsReproducible) {
  if (!enabled()) GTEST_SKIP() << "yield points compiled out (DCFS_CHK=OFF)";
  const std::size_t a = Explorer::sample_distinct(queue_run, 0xdcf5, 64);
  const std::size_t b = Explorer::sample_distinct(queue_run, 0xdcf5, 64);
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 2u);  // a random walk must not collapse to one schedule
}

/// One claim-protocol run: both lanes of a 2-lane plan race their claims
/// (the WorkerPool steal path), recording every claimed range.
Scheduler::Trace claim_run(const Scheduler::ChoiceFn& choose) {
  par::ClaimPlan plan(/*n=*/6, /*grain=*/2, /*lanes=*/2);
  struct Claimed {
    std::size_t begin, end;
    bool stolen;
  };
  std::vector<Claimed> claimed[2];

  Scheduler scheduler;
  for (std::size_t lane = 0; lane < 2; ++lane) {
    scheduler.add_thread([&plan, &claimed, lane] {
      par::claim_ranges(plan, lane,
                        [&claimed, lane](std::size_t begin, std::size_t end,
                                         bool stolen) {
                          claimed[lane].push_back({begin, end, stolen});
                        });
    });
  }
  const Scheduler::Trace trace = scheduler.run(choose);

  // Exactly-once coverage of [0, n), no overlap, across both lanes.
  std::vector<bool> covered(plan.n, false);
  for (std::size_t lane = 0; lane < 2; ++lane) {
    for (const Claimed& c : claimed[lane]) {
      for (std::size_t i = c.begin; i < c.end; ++i) {
        if (covered[i]) throw std::logic_error("index claimed twice");
        covered[i] = true;
      }
      // A steal is exactly a claim outside the lane's own slice.
      const bool foreign = c.begin < plan.lane_begin[lane] ||
                           c.begin >= plan.lane_end[lane];
      if (c.stolen != foreign) {
        throw std::logic_error("steal misattributed");
      }
    }
  }
  if (std::find(covered.begin(), covered.end(), false) != covered.end()) {
    throw std::logic_error("index never claimed");
  }
  return trace;
}

TEST(ScheduleTest, ClaimProtocolExactlyOnceOverInterleavings) {
  if (!enabled()) GTEST_SKIP() << "yield points compiled out (DCFS_CHK=OFF)";
  const std::size_t runs = Explorer::enumerate(claim_run, 400);
  EXPECT_GE(runs, 50u);  // the 2-lane/6-index tree is comfortably larger
}

/// One accounting run: lane 1's first range throws; the batch must still
/// account every range, complete exactly once, and surface the first
/// error — under every schedule.
Scheduler::Trace accounting_run(const Scheduler::ChoiceFn& choose) {
  par::ClaimPlan plan(/*n=*/8, /*grain=*/2, /*lanes=*/2);
  par::BatchAccounting acct(8);
  std::size_t completions = 0;

  Scheduler scheduler;
  for (std::size_t lane = 0; lane < 2; ++lane) {
    scheduler.add_thread([&plan, &acct, &completions, lane] {
      par::claim_ranges(
          plan, lane, [&acct, &completions](std::size_t begin, std::size_t end,
                                            bool /*stolen*/) {
            const bool completed =
                acct.execute(begin, end, [](std::size_t b, std::size_t /*e*/) {
                  if (b >= 4) throw std::runtime_error("unit failed");
                });
            if (completed) ++completions;
          });
    });
  }
  const Scheduler::Trace trace = scheduler.run(choose);

  if (!acct.complete() || acct.done() != 8) {
    throw std::logic_error("batch did not account every range");
  }
  if (completions != 1) {
    throw std::logic_error("completion signalled other than exactly once");
  }
  if (!acct.failed()) throw std::logic_error("failure not recorded");
  try {
    acct.rethrow_if_failed();
    throw std::logic_error("first error not rethrown");
  } catch (const std::runtime_error& e) {
    if (std::string(e.what()) != "unit failed") throw;
  }
  return trace;
}

TEST(ScheduleTest, BatchAccountingInvariantsOverInterleavings) {
  if (!enabled()) GTEST_SKIP() << "yield points compiled out (DCFS_CHK=OFF)";
  const std::size_t runs = Explorer::enumerate(accounting_run, 400);
  EXPECT_GE(runs, 50u);
}

/// The handoff as WorkerPool's worker_loop ran it before the fix: the last
/// worker decremented the attached count, then locked the batch mutex to
/// notify.  The caller's predicate can see zero inside that gap, return,
/// and destroy the stack Batch whose mutex the worker is about to lock.
class PreFixHandoff {
 public:
  void attach(std::size_t workers) {
    refs_.store(workers, std::memory_order_relaxed);
  }

  template <typename Notify>
  void detach(Notify&& notify_last) {
    yield_point();
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      yield_point();  // the gap: already detached, not yet notified
      const LockGuard<Mutex> lock(mu_);
      notify_last();
    }
  }

  template <typename Ready>
  bool try_wait(Ready&& ready) {
    const LockGuard<Mutex> lock(mu_);
    return ready() && refs_.load(std::memory_order_acquire) == 0;
  }

 private:
  std::atomic<std::size_t> refs_{0};
  Mutex mu_{"test.prefix_batch"};
};

/// One batch-teardown run: two workers detach while the caller polls its
/// wait predicate and retires the batch the moment it holds (in
/// WorkerPool, parallel_for returns and its stack Batch dies).  The last
/// worker's notify is its final access to the batch; reaching it after
/// the retirement is a use-after-release, counted in `violations`.
template <typename Handoff>
Scheduler::Trace teardown_run(const Scheduler::ChoiceFn& choose,
                              std::size_t& violations) {
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kPolls = 3;  // bounded, so every schedule ends
  Handoff handoff;
  handoff.attach(kWorkers);
  bool retired = false;
  bool notified = false;

  Scheduler scheduler;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    scheduler.add_thread([&] {
      handoff.detach([&] {
        if (retired) ++violations;
        notified = true;
      });
    });
  }
  scheduler.add_thread([&] {
    for (std::size_t poll = 0; poll < kPolls && !retired; ++poll) {
      yield_point();
      retired = handoff.try_wait([] { return true; });
    }
  });
  const Scheduler::Trace trace = scheduler.run(choose);
  if (!notified) throw std::logic_error("last worker never notified");
  return trace;
}

TEST(ScheduleTest, BatchHandoffNeverTouchesARetiredBatch) {
  if (!enabled()) GTEST_SKIP() << "yield points compiled out (DCFS_CHK=OFF)";
  std::size_t violations = 0;
  const std::size_t runs = Explorer::enumerate(
      [&violations](const Scheduler::ChoiceFn& choose) {
        return teardown_run<par::BatchHandoff>(choose, violations);
      },
      5000);
  EXPECT_GE(runs, 20u);
  EXPECT_LT(runs, 5000u) << "tree not exhausted: raise the bound";
  EXPECT_EQ(violations, 0u);
}

TEST(ScheduleTest, PreFixHandoffOrderingIsCaught) {
  if (!enabled()) GTEST_SKIP() << "yield points compiled out (DCFS_CHK=OFF)";
  // The explorer must find the interleaving that broke WorkerPool teardown:
  // the caller retires the batch between the last worker's decrement and
  // its notify.
  std::size_t violations = 0;
  Explorer::enumerate(
      [&violations](const Scheduler::ChoiceFn& choose) {
        return teardown_run<PreFixHandoff>(choose, violations);
      },
      5000);
  EXPECT_GT(violations, 0u);
}

// The protocol itself (no scheduler) — valid in both build configs.
TEST(ScheduleTest, ClaimPlanPartitionsExactly) {
  par::ClaimPlan plan(10, 3, 3);
  ASSERT_EQ(plan.lane_begin.size(), 3u);
  EXPECT_EQ(plan.lane_begin[0], 0u);
  EXPECT_EQ(plan.lane_end[2], 10u);
  for (std::size_t lane = 1; lane < 3; ++lane) {
    EXPECT_EQ(plan.lane_end[lane - 1], plan.lane_begin[lane]);
  }

  std::vector<int> claims(10, 0);
  for (std::size_t lane = 0; lane < 3; ++lane) {
    par::claim_ranges(plan, lane,
                      [&claims](std::size_t begin, std::size_t end, bool) {
                        for (std::size_t i = begin; i < end; ++i) ++claims[i];
                      });
  }
  EXPECT_EQ(std::count(claims.begin(), claims.end(), 1),
            static_cast<std::ptrdiff_t>(claims.size()));
}

TEST(ScheduleTest, BatchAccountingSkipsAfterFailure) {
  par::BatchAccounting acct(6);
  std::size_t bodies_run = 0;
  EXPECT_FALSE(acct.execute(0, 2, [&bodies_run](std::size_t, std::size_t) {
    ++bodies_run;
    throw std::runtime_error("first");
  }));
  EXPECT_TRUE(acct.failed());
  // Later ranges are accounted but their bodies are skipped.
  EXPECT_FALSE(acct.execute(2, 4, [&bodies_run](std::size_t, std::size_t) {
    ++bodies_run;
  }));
  EXPECT_TRUE(acct.execute(4, 6, [&bodies_run](std::size_t, std::size_t) {
    ++bodies_run;
  }));
  EXPECT_EQ(bodies_run, 1u);
  EXPECT_TRUE(acct.complete());
  EXPECT_THROW(acct.rethrow_if_failed(), std::runtime_error);
}

}  // namespace
}  // namespace dcfs::chk
