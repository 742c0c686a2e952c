// Tests for common::ThreadPool: every index runs exactly once under guided
// chunk claims, exception propagation, pool reuse, degenerate sizes, and
// the multi-owner contract (concurrent ParallelFor from several threads —
// the async dispatcher, ingest writers and Search callers share one pool —
// and re-entrant calls from inside a worker). The concurrency tests are
// the TSan regression targets — build with -DFCM_SANITIZE=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"

namespace fcm::common {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  // Awkward sizes around the claim divisor (2 x pool size): tails below it
  // drain in single-index claims, and every index must still run once.
  for (const int threads : {2, 3, 4, 8}) {
    ThreadPool pool(threads);
    for (const size_t n : {2, 3, 7, 8, 9, 31, 1000, 10007}) {
      std::vector<std::atomic<int>> counts(n);
      pool.ParallelFor(n, [&](size_t i) { counts[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(counts[i].load(), 1)
            << "index " << i << " of " << n << ", " << threads << " threads";
      }
    }
  }
}

TEST(ThreadPoolTest, MatchesSerialResult) {
  // Results land at their own index whatever the schedule, so a parallel
  // run equals the serial one element for element.
  ThreadPool serial(1), parallel(8);
  const size_t n = 2000;
  auto run = [n](ThreadPool* pool) {
    std::vector<double> out(n);
    pool->ParallelFor(n, [&out](size_t i) {
      double acc = 0.0;
      for (size_t j = 0; j < 50; ++j) {
        acc += static_cast<double>(i * 31 + j) * 1e-3;
      }
      out[i] = acc;
    });
    return out;
  };
  EXPECT_EQ(run(&serial), run(&parallel));
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(1000,
                                [](size_t i) {
                                  if (i == 613) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, UsableAfterException) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        pool.ParallelFor(100, [](size_t) { throw std::runtime_error("x"); }),
        std::runtime_error);
    std::atomic<int> ok{0};
    pool.ParallelFor(100, [&](size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 100);
  }
}

TEST(ThreadPoolTest, ReuseAcrossManyBatches) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(total.load(), 50L * (63 * 64 / 2));
}

TEST(ThreadPoolTest, ZeroIterationsIsNoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const auto caller = std::this_thread::get_id();
  pool.ParallelFor(16, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, DefaultSizeUsesHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, ConcurrentOwnersEachSeeTheirOwnBatch) {
  // Several owner threads drive ParallelFors through one pool at once (the
  // serving shape: the async dispatcher, an ingest writer and Search
  // callers are all owners). Each owner's results must be exactly its own
  // serial loop's.
  ThreadPool pool(3);
  constexpr int kOwners = 4;
  constexpr size_t kN = 4000;
  std::vector<std::vector<int>> results(kOwners);
  std::vector<std::thread> owners;
  for (int o = 0; o < kOwners; ++o) {
    owners.emplace_back([&, o]() {
      auto& out = results[static_cast<size_t>(o)];
      out.resize(kN);
      for (int round = 0; round < 5; ++round) {
        pool.ParallelFor(kN, [&out, o, round](size_t i) {
          out[i] = static_cast<int>(i) * (o + 1) + round;
        });
      }
    });
  }
  for (auto& t : owners) t.join();
  for (int o = 0; o < kOwners; ++o) {
    const auto& out = results[static_cast<size_t>(o)];
    ASSERT_EQ(out.size(), kN);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i) * (o + 1) + 4) << "owner " << o;
    }
  }
}

TEST(ThreadPoolTest, ReentrantParallelForFromWorkerIteration) {
  // A worker iteration may itself own a nested ParallelFor; the owner
  // always participates in its own batch, so this cannot deadlock even
  // when every worker is busy.
  ThreadPool pool(4);
  constexpr size_t kOuter = 8, kInner = 500;
  std::vector<long> sums(kOuter, 0);
  pool.ParallelFor(kOuter, [&](size_t o) {
    std::atomic<long> acc{0};
    pool.ParallelFor(kInner, [&](size_t i) {
      acc.fetch_add(static_cast<long>(i) + static_cast<long>(o));
    });
    sums[o] = acc.load();
  });
  const long inner_base = static_cast<long>(kInner * (kInner - 1) / 2);
  for (size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(sums[o],
              inner_base + static_cast<long>(o) * static_cast<long>(kInner));
  }
}

TEST(ThreadPoolTest, ConcurrentOwnersSurviveOneOwnersException) {
  // One owner's failing batch must not poison the others or the pool.
  ThreadPool pool(3);
  std::atomic<int> good{0};
  std::thread thrower([&]() {
    for (int round = 0; round < 10; ++round) {
      EXPECT_THROW(
          pool.ParallelFor(256,
                           [](size_t i) {
                             if (i == 17) throw std::runtime_error("boom");
                           }),
          std::runtime_error);
    }
  });
  std::thread worker_owner([&]() {
    for (int round = 0; round < 10; ++round) {
      pool.ParallelFor(256, [&](size_t) { good.fetch_add(1); });
    }
  });
  thrower.join();
  worker_owner.join();
  EXPECT_EQ(good.load(), 2560);
  std::atomic<int> after{0};
  pool.ParallelFor(64, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPoolTest, TaskFailpointPropagatesToOwner) {
  // The `threadpool.task` site fires inside worker task bodies; the pool
  // must surface the injected fault to the owning ParallelFor caller and
  // stay fully usable once disarmed.
  ThreadPool pool(4);
  common::failpoint::Spec spec;
  spec.max_fires = 1;
  common::failpoint::Arm("threadpool.task", std::move(spec));
  EXPECT_THROW(pool.ParallelFor(1000, [](size_t) {}),
               common::failpoint::FailpointError);
  common::failpoint::DisarmAll();
  std::atomic<int> ok{0};
  pool.ParallelFor(100, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 100);
}

TEST(ThreadPoolTest, ConcurrentOwnersSurviveInjectedTaskFaults) {
  // Several owner threads share one pool while `threadpool.task` fires
  // probabilistically (seeded). Each owner's batch either completes with
  // exact results or throws FailpointError; a fault in one owner's batch
  // must never corrupt another owner's results or wedge the pool. Under
  // FCM_SANITIZE=thread this doubles as the fault-path race check.
  ThreadPool pool(3);
  common::failpoint::Spec spec;
  spec.probability = 0.3;
  spec.seed = 99;
  common::failpoint::Arm("threadpool.task", std::move(spec));
  constexpr int kOwners = 4;
  std::atomic<int> clean_batches{0}, faulted_batches{0}, corrupt{0};
  std::vector<std::thread> owners;
  for (int o = 0; o < kOwners; ++o) {
    owners.emplace_back([&, o]() {
      for (int round = 0; round < 10; ++round) {
        try {
          std::vector<int> out(512);
          pool.ParallelFor(out.size(), [&out, o](size_t i) {
            out[i] = static_cast<int>(i) * (o + 1);
          });
          for (size_t i = 0; i < out.size(); ++i) {
            if (out[i] != static_cast<int>(i) * (o + 1)) {
              corrupt.fetch_add(1);
              break;
            }
          }
          clean_batches.fetch_add(1);
        } catch (const common::failpoint::FailpointError&) {
          faulted_batches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : owners) t.join();
  common::failpoint::DisarmAll();
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_EQ(clean_batches.load() + faulted_batches.load(), kOwners * 10);
  EXPECT_GT(faulted_batches.load(), 0);  // p=0.3 over 40 batches must fire.
  // The pool is intact after the fault storm.
  std::atomic<int> after{0};
  pool.ParallelFor(64, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64);
}

}  // namespace
}  // namespace fcm::common
