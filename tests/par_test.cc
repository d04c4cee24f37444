#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "par/claim.h"
#include "par/worker_pool.h"

namespace dcfs::par {
namespace {

TEST(WorkerPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.workers(), 3u);
  EXPECT_EQ(pool.parallelism(), 4u);

  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(touched.size(), 7, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      touched[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, SingleThreadPoolRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.workers(), 0u);
  EXPECT_EQ(pool.parallelism(), 1u);

  std::vector<int> touched(100, 0);
  pool.parallel_for(touched.size(), 10, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++touched[i];
  });
  for (int count : touched) EXPECT_EQ(count, 1);
}

TEST(WorkerPoolTest, EmptyRangeIsANoop) {
  WorkerPool pool(4);
  bool ran = false;
  pool.parallel_for(0, 16, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(WorkerPoolTest, ZeroGrainIsTreatedAsOne) {
  WorkerPool pool(2);
  std::atomic<std::size_t> items{0};
  pool.parallel_for(33, 0, [&](std::size_t lo, std::size_t hi) {
    items.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(items.load(), 33u);
}

TEST(WorkerPoolTest, PoolIsReusableAcrossManyBatches) {
  WorkerPool pool(4);
  std::uint64_t expected = 0;
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 64; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(round) * 13 % 97;
    for (std::size_t i = 0; i < n; ++i) expected += i;
    pool.parallel_for(n, 4, [&](std::size_t lo, std::size_t hi) {
      std::uint64_t local = 0;
      for (std::size_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(WorkerPoolTest, ExceptionPropagatesAndPoolSurvives) {
  WorkerPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(512, 1,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 300) throw std::runtime_error("boom");
                        }),
      std::runtime_error);

  // The pool must still be usable after a failed batch.
  std::atomic<std::size_t> items{0};
  pool.parallel_for(256, 8, [&](std::size_t lo, std::size_t hi) {
    items.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(items.load(), 256u);
}

// Regression (annotation sweep): BatchAccounting::error_ was written under
// error_mu_ by execute()'s catch but read bare by rethrow_if_failed() and
// cleared bare by reset().  All three now serialize on error_mu_
// (error_ is DCFS_GUARDED_BY(error_mu_)); this hammers concurrent failure
// capture against the reset/rethrow cycle — TSan (CI) would flag the old
// unlocked accesses.
TEST(BatchAccountingTest, ErrorCaptureSerializesWithResetAndRethrow) {
  BatchAccounting acct;
  for (int round = 0; round < 50; ++round) {
    acct.reset(8);
    std::vector<std::thread> throwers;
    for (int t = 0; t < 4; ++t) {
      throwers.emplace_back([&acct, t] {
        for (int i = 0; i < 2; ++i) {
          const auto at = static_cast<std::size_t>(t * 2 + i);
          acct.execute(at, at + 1, [](std::size_t, std::size_t) {
            throw std::runtime_error("boom");
          });
        }
      });
    }
    for (std::thread& thread : throwers) thread.join();
    ASSERT_TRUE(acct.complete());
    EXPECT_TRUE(acct.failed());
    EXPECT_THROW(acct.rethrow_if_failed(), std::runtime_error);
  }

  // reset() clears the captured error: a fresh clean batch must not
  // rethrow the stale exception from the failed rounds above.
  acct.reset(4);
  std::atomic<std::size_t> ran{0};
  acct.execute(0, 4, [&](std::size_t begin, std::size_t end) {
    ran.fetch_add(end - begin, std::memory_order_relaxed);
  });
  ASSERT_TRUE(acct.complete());
  EXPECT_EQ(ran.load(), 4u);
  EXPECT_FALSE(acct.failed());
  EXPECT_NO_THROW(acct.rethrow_if_failed());
}

TEST(WorkerPoolTest, DestructionWithoutWorkJoinsCleanly) {
  for (int i = 0; i < 8; ++i) {
    WorkerPool pool(4);  // spawn and immediately tear down
  }
}

TEST(WorkerPoolTest, SmallBatchRunsSerially) {
  WorkerPool pool(4);
  // n <= grain: everything runs on the calling thread as one range.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_for(5, 8, [&](std::size_t lo, std::size_t hi) {
    ranges.emplace_back(lo, hi);  // unsynchronized: must be caller-only
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{0, 5}));
}

TEST(WorkerPoolTest, MetricsAreExported) {
  obs::Obs obs;
  WorkerPool pool(4, &obs);
  pool.parallel_for(1000, 4, [](std::size_t, std::size_t) {});
  pool.parallel_for(1000, 4, [](std::size_t, std::size_t) {});

  const obs::Snapshot snap = obs.registry.snapshot();
  EXPECT_EQ(snap.gauge("par.workers"), 3);
  EXPECT_EQ(snap.counter("par.batches"), 2u);
  EXPECT_GT(snap.counter("par.tasks"), 0u);
  EXPECT_TRUE(snap.has_counter("par.steals"));
  EXPECT_EQ(snap.gauge("par.queue_depth"), 0);
  const obs::HistogramSnapshot* kernel_us = snap.histogram("par.kernel_us");
  ASSERT_NE(kernel_us, nullptr);
  EXPECT_EQ(kernel_us->count, 2u);
}

TEST(WorkerPoolTest, OneLanePoolLeavesSharedInstrumentsAlone) {
  // A client pool and a one-lane server pool on one Obs: the one-lane pool
  // has no workers to report and must not reset the client's gauge.
  obs::Obs obs;
  WorkerPool client(4, &obs);
  WorkerPool server(1, &obs);
  server.parallel_for(10, 1, [](std::size_t, std::size_t) {});
  const obs::Snapshot snap = obs.registry.snapshot();
  EXPECT_EQ(snap.gauge("par.workers"), 3);
  EXPECT_EQ(snap.counter("par.batches"), 0u);
}

TEST(WorkerPoolTest, ConcurrentSumMatchesSerial) {
  WorkerPool pool(8);
  std::vector<std::uint64_t> values(100'000);
  std::iota(values.begin(), values.end(), 1);
  const std::uint64_t expected =
      std::accumulate(values.begin(), values.end(), std::uint64_t{0});

  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(values.size(), 1024,
                    [&](std::size_t lo, std::size_t hi) {
                      std::uint64_t local = 0;
                      for (std::size_t i = lo; i < hi; ++i) local += values[i];
                      sum.fetch_add(local, std::memory_order_relaxed);
                    });
  EXPECT_EQ(sum.load(), expected);
}

/// Overwrites the stack the previous parallel_for's Batch lived in, so a
/// worker still touching that batch finds garbage instead of the
/// look-alike batch the next call would build at the same address.
[[gnu::noinline]] void scribble_stack() {
  volatile unsigned char junk[4096];
  for (std::size_t i = 0; i < sizeof(junk); ++i) junk[i] = 0xA5;
}

TEST(WorkerPoolTest, RepeatedSmallBatchesTearDownCleanly) {
  // Every parallel_for ends with the caller destroying its stack batch as
  // soon as the workers detached.  Thousands of small batches on a
  // multi-lane pool keep hitting that teardown window; uneven item costs
  // make the caller often reach its wait just as the last worker detaches.
  // A worker touching a dead batch crashes, hangs or trips the sanitizers.
  WorkerPool pool(4);
  std::size_t total = 0;
  for (std::size_t round = 0; round < 20'000; ++round) {
    const std::size_t n = 2 + round % 7;
    std::atomic<std::size_t> items{0};
    pool.parallel_for(n, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        for (std::size_t spin = (round + i) % 4; spin > 0; --spin) {
          std::this_thread::yield();
        }
      }
      items.fetch_add(hi - lo, std::memory_order_relaxed);
    });
    ASSERT_EQ(items.load(), n) << "round " << round;
    scribble_stack();
    total += n;
  }
  EXPECT_GT(total, 20'000u);
}

}  // namespace
}  // namespace dcfs::par
