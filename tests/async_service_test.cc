// Tests for index::AsyncSearchService: bit-identical equivalence with
// SearchEngine::Search across coalescing patterns and strategies,
// backpressure semantics (bounded queue, block vs reject), deterministic
// shutdown (drain and cancel), fault tolerance (blast-radius isolation,
// per-request deadlines, the circuit breaker — driven by failpoints), and
// many-submitter stress — the latter is the TSan target for the submitters,
// the dispatcher and the pool workers racing on the shared queue and pool
// (build with -DFCM_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "chart/renderer.h"
#include "common/failpoint.h"
#include "core/fcm_config.h"
#include "core/fcm_model.h"
#include "index/async_service.h"
#include "index/search_engine.h"
#include "table/data_lake.h"
#include "table/data_series.h"
#include "vision/mask_oracle_extractor.h"

namespace fcm::index {
namespace {

class AsyncSearchServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 8; ++i) {
      table::Table t;
      for (int c = 0; c < 2; ++c) {
        std::vector<double> v(60);
        for (size_t j = 0; j < v.size(); ++j) {
          v[j] = std::cos(static_cast<double>(j) * (0.05 + 0.03 * i) + c) *
                     (2.0 + i) +
                 1.5 * c;
        }
        t.AddColumn(table::Column("c" + std::to_string(c), std::move(v)));
      }
      lake_.Add(std::move(t));
    }
    core::FcmConfig config;
    config.embed_dim = 16;
    config.num_layers = 1;
    config.strip_height = 16;
    config.strip_width = 64;
    config.line_segment_width = 16;
    config.column_length = 64;
    config.data_segment_size = 16;
    model_ = std::make_unique<core::FcmModel>(config);

    SearchEngineOptions options;
    options.num_threads = 2;
    engine_ = std::make_unique<SearchEngine>(model_.get(), &lake_);
    engine_->BuildWithOptions(options);

    vision::MaskOracleExtractor oracle;
    for (int q = 0; q < 5; ++q) {
      table::DataSeries d;
      d.y = lake_.Get(q % 8).column(q % 2).values;
      queries_.push_back(
          oracle.Extract(chart::RenderLineChart({d})).value());
    }
  }

  void TearDown() override { common::failpoint::DisarmAll(); }

  /// The accounting invariant every drained service must satisfy: each
  /// accepted request lands in exactly one terminal counter.
  static void ExpectBalanced(const AsyncServiceStats& stats) {
    EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                   stats.failed + stats.deadline_expired);
  }

  static void ExpectSameHits(const std::vector<SearchHit>& a,
                             const std::vector<SearchHit>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].table_id, b[i].table_id) << "rank " << i;
      // Bit-identical, not approximately equal: the async service runs
      // the same stage code as Search, so scores must match exactly.
      EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
    }
  }

  table::DataLake lake_;
  std::unique_ptr<core::FcmModel> model_;
  std::unique_ptr<SearchEngine> engine_;
  std::vector<vision::ExtractedChart> queries_;
};

TEST_F(AsyncSearchServiceTest, MatchesSearchAcrossCoalescingPatterns) {
  // Micro-batch knobs from "never coalesce" through "coalesce everything";
  // each configuration must produce rankings bit-identical to Search for
  // every request, whatever batches the dispatcher happened to form.
  const auto make_options = [](size_t max_batch_size,
                               double max_batch_delay_ms) {
    AsyncServiceOptions options;
    options.queue_capacity = 64;
    options.backpressure = BackpressureMode::kBlock;
    options.max_batch_size = max_batch_size;
    options.max_batch_delay_ms = max_batch_delay_ms;
    return options;
  };
  const AsyncServiceOptions configs[] = {
      make_options(/*max_batch_size=*/1, /*max_batch_delay_ms=*/0.0),
      make_options(/*max_batch_size=*/3, /*max_batch_delay_ms=*/2.0),
      make_options(/*max_batch_size=*/64, /*max_batch_delay_ms=*/5.0),
  };
  const IndexStrategy strategies[] = {
      IndexStrategy::kNoIndex, IndexStrategy::kIntervalTree,
      IndexStrategy::kLsh, IndexStrategy::kHybrid};
  for (const auto& options : configs) {
    AsyncSearchService service(engine_.get(), options);
    std::vector<std::future<std::vector<SearchHit>>> futures;
    std::vector<std::vector<SearchHit>> expected;
    // Mixed strategies and k inside the same (potential) micro-batch.
    for (size_t q = 0; q < queries_.size(); ++q) {
      for (const auto strategy : strategies) {
        const int k = 1 + static_cast<int>(q);
        futures.push_back(service.Submit(queries_[q], k, strategy));
        expected.push_back(engine_->Search(queries_[q], k, strategy));
      }
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      ExpectSameHits(futures[i].get(), expected[i]);
    }
    service.Shutdown();
    const auto stats = service.stats();
    EXPECT_EQ(stats.submitted, futures.size());
    EXPECT_EQ(stats.completed, futures.size());
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.cancelled, 0u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_LE(stats.max_coalesced, options.max_batch_size);
  }
}

TEST_F(AsyncSearchServiceTest, SubmitBatchMatchesSearchBatch) {
  // A burst of Submits, coalesced however the dispatcher chooses, ranks
  // exactly like one SearchBatch over the same queries.
  AsyncSearchService service(engine_.get());
  std::vector<std::future<std::vector<SearchHit>>> futures;
  for (const auto& query : queries_) {
    futures.push_back(service.Submit(query, 3, IndexStrategy::kHybrid));
  }
  const auto expected =
      engine_->SearchBatch(queries_, 3, IndexStrategy::kHybrid);
  ASSERT_EQ(futures.size(), expected.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectSameHits(futures[i].get(), expected[i]);
  }
}

TEST_F(AsyncSearchServiceTest, EmptyQueryYieldsEmptyRanking) {
  AsyncSearchService service(engine_.get());
  auto future =
      service.Submit(vision::ExtractedChart{}, 5, IndexStrategy::kNoIndex);
  EXPECT_TRUE(future.get().empty());
}

TEST_F(AsyncSearchServiceTest, BlockModeNeverDropsUnderTinyQueue) {
  // Capacity 1 with a fast submitter: block-mode backpressure must stall
  // the caller instead of dropping or rejecting anything.
  AsyncServiceOptions options;
  options.queue_capacity = 1;
  options.max_batch_size = 2;
  options.max_batch_delay_ms = 0.0;
  AsyncSearchService service(engine_.get(), options);
  std::vector<std::future<std::vector<SearchHit>>> futures;
  const int rounds = 20;
  for (int r = 0; r < rounds; ++r) {
    futures.push_back(service.Submit(queries_[r % queries_.size()], 3,
                                     IndexStrategy::kNoIndex));
  }
  const auto expected = engine_->Search(queries_[0], 3, IndexStrategy::kNoIndex);
  for (int r = 0; r < rounds; ++r) {
    auto hits = futures[static_cast<size_t>(r)].get();
    if (r % static_cast<int>(queries_.size()) == 0) {
      ExpectSameHits(hits, expected);
    }
  }
  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(rounds));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(rounds));
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(AsyncSearchServiceTest, RejectModeAccountsForEveryRequest) {
  // kReject with a tiny queue and a burst of submitters: rejections are
  // load-dependent, but accounting must be exact — every request either
  // completes or carries RejectedError, and none may vanish.
  AsyncServiceOptions options;
  options.queue_capacity = 2;
  options.backpressure = BackpressureMode::kReject;
  options.max_batch_size = 2;
  AsyncSearchService service(engine_.get(), options);
  const int total = 40;
  std::vector<std::future<std::vector<SearchHit>>> futures;
  for (int r = 0; r < total; ++r) {
    futures.push_back(service.Submit(queries_[r % queries_.size()], 2,
                                     IndexStrategy::kNoIndex));
  }
  uint64_t served = 0, rejected = 0;
  for (auto& future : futures) {
    try {
      future.get();
      ++served;
    } catch (const RejectedError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(served + rejected, static_cast<uint64_t>(total));
  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, served);
  EXPECT_EQ(stats.completed, served);
  EXPECT_EQ(stats.rejected, rejected);
}

TEST_F(AsyncSearchServiceTest, ShutdownDrainsEverythingAccepted) {
  AsyncServiceOptions options;
  options.max_batch_size = 2;
  options.max_batch_delay_ms = 5.0;
  auto service =
      std::make_unique<AsyncSearchService>(engine_.get(), options);
  std::vector<std::future<std::vector<SearchHit>>> futures;
  for (int r = 0; r < 12; ++r) {
    futures.push_back(service->Submit(queries_[r % queries_.size()], 4,
                                      IndexStrategy::kLsh));
  }
  service->Shutdown(/*drain=*/true);  // While micro-batches are in flight.
  for (int r = 0; r < 12; ++r) {
    ExpectSameHits(
        futures[static_cast<size_t>(r)].get(),
        engine_->Search(queries_[r % queries_.size()], 4, IndexStrategy::kLsh));
  }
  const auto stats = service->stats();
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.cancelled, 0u);
  service.reset();  // Double shutdown through the destructor is a no-op.
}

TEST_F(AsyncSearchServiceTest, ShutdownCancelFailsUndispatchedRequests) {
  AsyncServiceOptions options;
  options.max_batch_size = 1;
  options.max_batch_delay_ms = 0.0;
  AsyncSearchService service(engine_.get(), options);
  std::vector<std::future<std::vector<SearchHit>>> futures;
  for (int r = 0; r < 30; ++r) {
    futures.push_back(service.Submit(queries_[r % queries_.size()], 3,
                                     IndexStrategy::kNoIndex));
  }
  service.Shutdown(/*drain=*/false);
  uint64_t served = 0, cancelled = 0;
  const auto expected = engine_->Search(queries_[0], 3, IndexStrategy::kNoIndex);
  for (int r = 0; r < 30; ++r) {
    try {
      auto hits = futures[static_cast<size_t>(r)].get();
      // Whatever was already dispatched must still be exact.
      if (r % static_cast<int>(queries_.size()) == 0) {
        ExpectSameHits(hits, expected);
      }
      ++served;
    } catch (const ShutdownError&) {
      ++cancelled;
    }
  }
  EXPECT_EQ(served + cancelled, 30u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, served);
  EXPECT_EQ(stats.cancelled, cancelled);
}

TEST_F(AsyncSearchServiceTest, SubmitAfterShutdownRejects) {
  AsyncSearchService service(engine_.get());
  service.Shutdown();
  auto future = service.Submit(queries_[0], 3, IndexStrategy::kNoIndex);
  EXPECT_THROW(future.get(), RejectedError);
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST_F(AsyncSearchServiceTest, PoisonedRequestFailsAloneInCoalescedBatch) {
  // The blast-radius acceptance test: one request of a coalesced
  // micro-batch is poisoned (its id fails the score stage every time it
  // runs); it alone must carry the error while every neighbor returns
  // hits bit-identical to Search.
  const int k = 3;
  std::vector<std::vector<SearchHit>> expected;
  for (size_t q = 0; q < queries_.size(); ++q) {
    expected.push_back(engine_->Search(queries_[q], k, IndexStrategy::kHybrid));
  }

  // Ids are assigned in admission order from 1; single-threaded submission
  // makes them 1..5. Poison id 3 — stable across the bisect retry, so the
  // singleton re-run fails again while neighbors succeed.
  constexpr uint64_t kPoisoned = 3;
  common::failpoint::Spec spec;
  spec.message = "poisoned request";
  spec.matcher = [](uint64_t key) { return key == kPoisoned; };
  common::failpoint::Arm("engine.score_query", std::move(spec));

  AsyncServiceOptions options;
  options.max_batch_size = 8;
  options.max_batch_delay_ms = 100.0;  // Coalesce everything into one batch.
  AsyncSearchService service(engine_.get(), options);
  std::vector<std::future<std::vector<SearchHit>>> futures;
  for (size_t q = 0; q < queries_.size(); ++q) {
    futures.push_back(service.Submit(queries_[q], k, IndexStrategy::kHybrid));
  }
  for (size_t q = 0; q < queries_.size(); ++q) {
    if (q + 1 == kPoisoned) {
      EXPECT_THROW(futures[q].get(), common::failpoint::FailpointError);
    } else {
      ExpectSameHits(futures[q].get(), expected[q]);
    }
  }
  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, queries_.size());
  EXPECT_EQ(stats.completed, queries_.size() - 1);
  EXPECT_EQ(stats.failed, 1u);
  // The poisoned request's batch went through the isolation retry
  // whatever coalescing the dispatcher chose.
  EXPECT_GE(stats.retried, 1u);
  ExpectBalanced(stats);
  // One healthy request's failure must not trip the default breaker.
  EXPECT_EQ(service.Health().breaker, BreakerState::kClosed);
}

TEST_F(AsyncSearchServiceTest, DispatchFaultRecoversEveryRequest) {
  // A fault at batch granularity (async.dispatch fires once, before the
  // encode stage) poisons no individual request: the isolation retry must
  // serve every request of the affected batch exactly.
  common::failpoint::Spec spec;
  spec.max_fires = 1;
  common::failpoint::Arm("async.dispatch", std::move(spec));

  AsyncServiceOptions options;
  options.max_batch_size = 8;
  options.max_batch_delay_ms = 50.0;
  AsyncSearchService service(engine_.get(), options);
  std::vector<std::future<std::vector<SearchHit>>> futures;
  for (size_t q = 0; q < queries_.size(); ++q) {
    futures.push_back(service.Submit(queries_[q], 2, IndexStrategy::kLsh));
  }
  for (size_t q = 0; q < queries_.size(); ++q) {
    ExpectSameHits(futures[q].get(),
                   engine_->Search(queries_[q], 2, IndexStrategy::kLsh));
  }
  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, queries_.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.retried, 1u);  // The faulted batch took the retry path.
  ExpectBalanced(stats);
}

TEST_F(AsyncSearchServiceTest, SubmitFaultCountsAsFailedRequest) {
  common::failpoint::Spec spec;
  spec.max_fires = 1;
  common::failpoint::Arm("async.submit", std::move(spec));
  AsyncSearchService service(engine_.get());
  auto poisoned = service.Submit(queries_[0], 3, IndexStrategy::kNoIndex);
  EXPECT_THROW(poisoned.get(), common::failpoint::FailpointError);
  auto healthy = service.Submit(queries_[1], 3, IndexStrategy::kNoIndex);
  ExpectSameHits(healthy.get(),
                 engine_->Search(queries_[1], 3, IndexStrategy::kNoIndex));
  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  ExpectBalanced(stats);
}

TEST_F(AsyncSearchServiceTest, DeadlinesShedExpiredRequests) {
  // Slow the score stage to 50 ms per batch, then queue one request with
  // no deadline followed by seven with ~5 ms deadlines. The deadlined
  // requests are stuck behind the first batch's 50 ms and must be shed
  // with DeadlineExceededError — at dispatch or between stages — never
  // served, never lost.
  common::failpoint::Spec spec;
  spec.action = common::failpoint::Action::kDelay;
  spec.delay_ms = 50.0;
  common::failpoint::Arm("engine.score_stage", std::move(spec));

  AsyncServiceOptions options;
  options.max_batch_size = 1;
  options.max_batch_delay_ms = 0.0;
  AsyncSearchService service(engine_.get(), options);
  const auto expected =
      engine_->Search(queries_[0], 3, IndexStrategy::kNoIndex);
  auto unbounded = service.Submit(queries_[0], 3, IndexStrategy::kNoIndex);
  std::vector<std::future<std::vector<SearchHit>>> deadlined;
  for (int r = 0; r < 7; ++r) {
    deadlined.push_back(
        service.Submit(queries_[static_cast<size_t>(r) % queries_.size()], 3,
                       IndexStrategy::kNoIndex,
                       AsyncSearchService::DeadlineAfterMs(5.0)));
  }
  ExpectSameHits(unbounded.get(), expected);  // Delay never changes results.
  for (auto& future : deadlined) {
    EXPECT_THROW(future.get(), DeadlineExceededError);
  }
  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.deadline_expired, 7u);
  EXPECT_EQ(stats.failed, 0u);
  ExpectBalanced(stats);
}

TEST_F(AsyncSearchServiceTest, DeadlineExpiresWhileBlockedOnFullQueue) {
  // kBlock + a slow dispatcher: a deadlined Submit must not block past its
  // deadline. Whether it times out in the admission wait or is admitted
  // and shed later, it fails with DeadlineExceededError and the books
  // stay balanced.
  common::failpoint::Spec spec;
  spec.action = common::failpoint::Action::kDelay;
  spec.delay_ms = 50.0;
  common::failpoint::Arm("engine.score_stage", std::move(spec));

  AsyncServiceOptions options;
  options.queue_capacity = 1;
  options.max_batch_size = 1;
  options.max_batch_delay_ms = 0.0;
  AsyncSearchService service(engine_.get(), options);
  std::vector<std::future<std::vector<SearchHit>>> fillers;
  for (int r = 0; r < 10; ++r) {
    fillers.push_back(service.Submit(queries_[static_cast<size_t>(r) % 5], 2,
                                     IndexStrategy::kNoIndex));
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto deadlined =
      service.Submit(queries_[0], 2, IndexStrategy::kNoIndex,
                     AsyncSearchService::DeadlineAfterMs(10.0));
  // Submit returned: with the queue saturated it either waited out the
  // 10 ms deadline (well under the ~500 ms the fillers need) or slipped
  // into a momentarily free slot.
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(400));
  EXPECT_THROW(deadlined.get(), DeadlineExceededError);
  common::failpoint::DisarmAll();  // Let the fillers drain fast.
  for (auto& future : fillers) future.get();
  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 11u);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_EQ(stats.deadline_expired, 1u);
  ExpectBalanced(stats);
}

TEST_F(AsyncSearchServiceTest, AlreadyExpiredDeadlineFailsImmediately) {
  AsyncSearchService service(engine_.get());
  auto future = service.Submit(queries_[0], 3, IndexStrategy::kNoIndex,
                               std::chrono::steady_clock::now() -
                                   std::chrono::milliseconds(1));
  EXPECT_THROW(future.get(), DeadlineExceededError);
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.deadline_expired, 1u);
  ExpectBalanced(stats);
}

TEST_F(AsyncSearchServiceTest, CircuitBreakerOpensFastRejectsAndRecovers) {
  common::failpoint::Arm("engine.score_stage", common::failpoint::Spec{});

  AsyncServiceOptions options;
  options.max_batch_size = 1;
  options.max_batch_delay_ms = 0.0;
  options.breaker_threshold = 2;
  options.breaker_cooldown_ms = 50.0;
  AsyncSearchService service(engine_.get(), options);

  // Two consecutive failures trip the breaker (counters update before the
  // futures resolve, so the state is visible as soon as get() returns).
  for (int r = 0; r < 2; ++r) {
    auto future = service.Submit(queries_[0], 3, IndexStrategy::kNoIndex);
    EXPECT_THROW(future.get(), common::failpoint::FailpointError);
  }
  HealthSnapshot health = service.Health();
  EXPECT_EQ(health.breaker, BreakerState::kOpen);
  EXPECT_TRUE(health.degraded);
  EXPECT_EQ(health.consecutive_failures, 2u);
  EXPECT_EQ(health.breaker_trips, 1u);
  EXPECT_STREQ(BreakerStateName(health.breaker), "open");

  // Open breaker: fast-reject without queueing.
  auto shed = service.Submit(queries_[1], 3, IndexStrategy::kNoIndex);
  EXPECT_THROW(shed.get(), DegradedError);
  EXPECT_EQ(service.stats().fast_rejected, 1u);

  // Heal the engine, wait out the cooldown: the next request is admitted
  // as a half-open probe, succeeds, and closes the breaker.
  common::failpoint::DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  auto probe = service.Submit(queries_[1], 3, IndexStrategy::kNoIndex);
  ExpectSameHits(probe.get(),
                 engine_->Search(queries_[1], 3, IndexStrategy::kNoIndex));
  health = service.Health();
  EXPECT_EQ(health.breaker, BreakerState::kClosed);
  EXPECT_FALSE(health.degraded);
  EXPECT_EQ(health.consecutive_failures, 0u);
  EXPECT_EQ(health.breaker_trips, 1u);

  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);  // fast_rejected is not "submitted".
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 1u);
  ExpectBalanced(stats);
}

TEST_F(AsyncSearchServiceTest, FailedHalfOpenProbeReopensBreaker) {
  common::failpoint::Arm("engine.score_stage", common::failpoint::Spec{});
  AsyncServiceOptions options;
  options.max_batch_size = 1;
  options.breaker_threshold = 1;
  options.breaker_cooldown_ms = 1.0;
  AsyncSearchService service(engine_.get(), options);
  auto first = service.Submit(queries_[0], 3, IndexStrategy::kNoIndex);
  EXPECT_THROW(first.get(), common::failpoint::FailpointError);
  EXPECT_EQ(service.Health().breaker, BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Still-broken engine: the probe fails and re-opens the breaker.
  auto probe = service.Submit(queries_[0], 3, IndexStrategy::kNoIndex);
  EXPECT_THROW(probe.get(), common::failpoint::FailpointError);
  const HealthSnapshot health = service.Health();
  EXPECT_EQ(health.breaker, BreakerState::kOpen);
  EXPECT_EQ(health.breaker_trips, 2u);
  service.Shutdown();
  ExpectBalanced(service.stats());
}

TEST_F(AsyncSearchServiceTest, SubmittersRacingCancelShutdownSettleExactlyOnce) {
  // Several kBlock submitters race Shutdown(drain=false) on a tiny queue.
  // Every future must settle exactly once — served, rejected, or
  // cancelled — with no hangs and balanced books.
  AsyncServiceOptions options;
  options.queue_capacity = 2;
  options.max_batch_size = 2;
  options.max_batch_delay_ms = 0.5;
  AsyncSearchService service(engine_.get(), options);
  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 15;
  std::atomic<uint64_t> served{0}, rejected{0}, cancelled{0}, other{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s]() {
      for (int r = 0; r < kPerThread; ++r) {
        auto future = service.Submit(
            queries_[static_cast<size_t>(s + r) % queries_.size()], 2,
            IndexStrategy::kNoIndex);
        try {
          future.get();
          served.fetch_add(1);
        } catch (const ShutdownError&) {
          cancelled.fetch_add(1);
        } catch (const RejectedError&) {
          rejected.fetch_add(1);
        } catch (...) {
          other.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Shutdown(/*drain=*/false);
  for (auto& t : submitters) t.join();

  EXPECT_EQ(other.load(), 0u);
  EXPECT_EQ(served.load() + rejected.load() + cancelled.load(),
            static_cast<uint64_t>(kSubmitters * kPerThread));
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, served.load());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.cancelled, cancelled.load());
  ExpectBalanced(stats);
}

TEST_F(AsyncSearchServiceTest, ManySubmittersStress) {
  // Several submitter threads against one service, mixed strategies, with
  // the dispatcher fanning every stage onto the engine pool the whole
  // time. Under FCM_SANITIZE=thread this is the regression test for the
  // queue hand-off and the pool's batch scheduling.
  AsyncServiceOptions options;
  options.queue_capacity = 16;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 0.5;
  AsyncSearchService service(engine_.get(), options);

  std::vector<std::vector<SearchHit>> expected;
  for (size_t q = 0; q < queries_.size(); ++q) {
    expected.push_back(engine_->Search(queries_[q], 3, IndexStrategy::kHybrid));
  }

  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s]() {
      for (int r = 0; r < kPerThread; ++r) {
        const size_t q = static_cast<size_t>(s + r) % queries_.size();
        auto hits =
            service.Submit(queries_[q], 3, IndexStrategy::kHybrid).get();
        if (hits.size() != expected[q].size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < hits.size(); ++i) {
          if (hits[i].table_id != expected[q][i].table_id ||
              hits[i].score != expected[q][i].score) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kSubmitters * kPerThread));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

}  // namespace
}  // namespace fcm::index
