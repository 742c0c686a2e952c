// Seeded concurrent writer/reader/compactor interleaving stress for the
// live-ingestion subsystem (ctest labels `stress` + `ingest`). Because
// epochs are deterministic — the epoch holding N tables ranks exactly
// like a from-scratch Build over tables [0, N) — the expected ranking of
// *every* generation the run can pass through is precomputed serially up
// front, and the concurrent phase only has to prove linearizability:
//   - pinned readers: a result served from a pin must equal the
//     precomputed ranking for that pin's table count, bit for bit;
//   - async requests: a future's ranking must equal the precomputed
//     ranking of SOME generation current between submit and completion
//     (the dispatcher pins one epoch per micro-batch);
//   - compaction (a compactor thread merging at two deltas, raced by
//     explicit service.Compact calls) must never surface in any result;
//   - accounting: every future resolves and the drained service balances.
// Delay failpoints on the writer choke points (engine.ingest_batch,
// engine.compact) stretch the publish critical sections so interleavings
// that are nanoseconds wide in production stay reachable. The suite is
// the TSan/ASan target for the ingest paths via tools/run_fault_stress.sh;
// FCM_STRESS_SEED reseeds the schedule, FCM_STRESS_REQUESTS scales the
// async load.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chart/renderer.h"
#include "common/failpoint.h"
#include "core/fcm_config.h"
#include "core/fcm_model.h"
#include "index/async_service.h"
#include "index/search_engine.h"
#include "table/data_lake.h"
#include "table/data_series.h"
#include "vision/mask_oracle_extractor.h"

namespace fcm {
namespace {

namespace idx = fcm::index;
namespace failpoint = fcm::common::failpoint;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
}

const idx::IndexStrategy kAllStrategies[] = {
    idx::IndexStrategy::kNoIndex, idx::IndexStrategy::kIntervalTree,
    idx::IndexStrategy::kLsh, idx::IndexStrategy::kHybrid};
constexpr size_t kNumStrategies = 4;

/// Exact (bit-identical) ranking equality — the determinism contract
/// admits no tolerance.
bool SameHits(const std::vector<idx::SearchHit>& a,
              const std::vector<idx::SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].table_id != b[i].table_id || a[i].score != b[i].score)
      return false;
  }
  return true;
}

/// The i-th synthetic table — the same pure function of i as
/// ingest_test.cc, so generations here mean the same logical lakes.
table::Table MakeTable(int i) {
  table::Table t;
  for (int c = 0; c < 3; ++c) {
    std::vector<double> v(60);
    for (size_t j = 0; j < v.size(); ++j) {
      v[j] = std::sin(static_cast<double>(j) * (0.05 + 0.02 * i) + c) *
                 (3.0 + i) +
             2.0 * c;
    }
    t.AddColumn(table::Column("c" + std::to_string(c), std::move(v)));
  }
  return t;
}

std::vector<table::Table> MakeTables(int lo, int hi) {
  std::vector<table::Table> out;
  for (int i = lo; i < hi; ++i) out.push_back(MakeTable(i));
  return out;
}

constexpr int kBaseTables = 6;
constexpr int kBatchSize = 2;
constexpr int kBatches = 5;
constexpr int kTotalTables = kBaseTables + kBatchSize * kBatches;
constexpr int kTopK = 5;

class IngestStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = EnvU64("FCM_STRESS_SEED", 1234);
    async_requests_ = EnvU64("FCM_STRESS_REQUESTS", 120);

    core::FcmConfig config;
    config.embed_dim = 16;
    config.num_layers = 1;
    config.strip_height = 16;
    config.strip_width = 64;
    config.line_segment_width = 16;
    config.column_length = 64;
    config.data_segment_size = 16;
    model_ = std::make_unique<core::FcmModel>(config);

    vision::MaskOracleExtractor oracle;
    for (int q = 0; q < 3; ++q) {
      table::DataSeries d;
      d.y = MakeTable(q * 2).column(q % 3).values;
      queries_.push_back(oracle.Extract(chart::RenderLineChart({d})).value());
    }
  }

  void TearDown() override { failpoint::DisarmAll(); }

  idx::SearchEngineOptions Options() const {
    idx::SearchEngineOptions options;
    options.num_threads = 2;
    return options;
  }

  /// Rankings of one generation: indexed [strategy * queries + query].
  using Rankings = std::vector<std::vector<idx::SearchHit>>;

  /// Serially replays the whole append schedule on a throwaway engine and
  /// records every generation's rankings, keyed by table count (epoch ids
  /// shift under compaction, table counts do not).
  void BuildExpected() {
    table::DataLake lake;
    for (auto& t : MakeTables(0, kBaseTables)) lake.Add(std::move(t));
    idx::SearchEngine engine(model_.get(), &lake);
    engine.BuildWithOptions(Options());
    RecordExpected(engine);
    for (int b = 0; b < kBatches; ++b) {
      const int lo = kBaseTables + b * kBatchSize;
      ASSERT_TRUE(engine.IngestBatch(MakeTables(lo, lo + kBatchSize)).ok());
      RecordExpected(engine);
    }
  }

  void RecordExpected(const idx::SearchEngine& engine) {
    Rankings rankings;
    for (const auto strategy : kAllStrategies) {
      for (const auto& query : queries_) {
        rankings.push_back(engine.Search(query, kTopK, strategy));
      }
    }
    expected_[engine.num_tables()] = std::move(rankings);
  }

  const std::vector<idx::SearchHit>& Expected(size_t num_tables, size_t s,
                                              size_t q) const {
    return expected_.at(num_tables)[s * queries_.size() + q];
  }

  uint64_t seed_ = 0;
  uint64_t async_requests_ = 0;
  std::unique_ptr<core::FcmModel> model_;
  std::vector<vision::ExtractedChart> queries_;
  std::map<size_t, Rankings> expected_;
};

TEST_F(IngestStressTest, ConcurrentWriterReadersCompactorStayLinearizable) {
  BuildExpected();
  ASSERT_EQ(expected_.size(), static_cast<size_t>(kBatches + 1));

  table::DataLake lake;
  for (auto& t : MakeTables(0, kBaseTables)) lake.Add(std::move(t));
  idx::SearchEngine engine(model_.get(), &lake);
  engine.BuildWithOptions(Options());

  idx::AsyncServiceOptions service_options;
  service_options.max_batch_delay_ms = 0.2;
  idx::AsyncSearchService service(&engine, service_options);

  // Stretch the writer critical sections so reader/compactor overlap with
  // an in-flight publish is common instead of vanishingly rare. Delay
  // actions never change results — only timing.
  failpoint::Spec delay;
  delay.action = failpoint::Action::kDelay;
  delay.probability = 0.5;
  delay.seed = seed_;
  delay.delay_ms = 0.5;
  failpoint::Arm("engine.ingest_batch", delay);
  failpoint::Arm("engine.compact", delay);

  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> pinned_checks{0};

  // Writer: appends every batch through the serving path, racing the
  // compactor thread with explicit compactions of its own.
  std::thread writer([&] {
    std::mt19937_64 rng(seed_);
    for (int b = 0; b < kBatches; ++b) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + rng() % 3));
      const int lo = kBaseTables + b * kBatchSize;
      const auto status = service.Ingest(MakeTables(lo, lo + kBatchSize));
      EXPECT_TRUE(status.ok()) << status.message();
      if (b % 2 == 1) {
        const auto compacted = service.Compact();
        EXPECT_TRUE(compacted.ok()) << compacted.message();
      }
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Compaction thread: merges whenever two delta segments pile up, until
  // the writer finishes, so compaction races ingest, pinned reads and
  // async requests.
  std::thread compactor([&] {
    while (!writer_done.load(std::memory_order_acquire)) {
      if (engine.num_delta_segments() >= 2) {
        const auto status = engine.Compact();
        EXPECT_TRUE(status.ok()) << status.message();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });

  // Pinned readers: whatever generation a pin lands on, the ranking it
  // serves must be the precomputed one for that table count.
  std::vector<std::thread> readers;
  for (int tid = 0; tid < 2; ++tid) {
    readers.emplace_back([&, tid] {
      std::mt19937_64 rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (tid + 1)));
      int after_done = 0;
      while (after_done < 2) {
        if (writer_done.load(std::memory_order_acquire)) ++after_done;
        const idx::EpochPin pin = engine.PinEpoch();
        const size_t n = pin->num_tables();
        ASSERT_EQ(expected_.count(n), 1u)
            << "pin saw a table count no generation can have: " << n;
        const size_t s = rng() % kNumStrategies;
        const size_t q = rng() % queries_.size();
        const auto hits = engine.Search(queries_[q], kTopK,
                                        kAllStrategies[s], nullptr, pin);
        EXPECT_TRUE(SameHits(hits, Expected(n, s, q)))
            << "pinned Search diverged at " << n << " tables, strategy " << s
            << ", query " << q;
        if (rng() % 8 == 0) {
          const auto batched = engine.SearchBatch(queries_, kTopK,
                                                  kAllStrategies[s],
                                                  /*stats=*/nullptr, pin);
          ASSERT_EQ(batched.size(), queries_.size());
          for (size_t bq = 0; bq < batched.size(); ++bq) {
            EXPECT_TRUE(SameHits(batched[bq], Expected(n, s, bq)))
                << "pinned SearchBatch diverged at " << n << " tables";
          }
        }
        pinned_checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Async submitter: a future must resolve to the ranking of SOME
  // generation current in [submit, completion] — the dispatcher pins one
  // epoch per micro-batch, but the submitter cannot know which.
  std::thread submitter([&] {
    std::mt19937_64 rng(seed_ ^ 0xda3e39cb94b95bdbULL);
    for (uint64_t i = 0; i < async_requests_; ++i) {
      const size_t s = rng() % kNumStrategies;
      const size_t q = rng() % queries_.size();
      const size_t before = engine.num_tables();
      auto future = service.Submit(queries_[q], kTopK, kAllStrategies[s]);
      std::vector<idx::SearchHit> hits;
      try {
        hits = future.get();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "async request failed under pure ingest load: "
                      << e.what();
        continue;
      }
      const size_t after = engine.num_tables();
      bool matched = false;
      for (size_t n = before; n <= after && !matched; n += kBatchSize) {
        matched = SameHits(hits, Expected(n, s, q));
      }
      EXPECT_TRUE(matched)
          << "async ranking matches no generation in [" << before << ", "
          << after << "] tables (strategy " << s << ", query " << q << ")";
    }
  });

  writer.join();
  compactor.join();
  submitter.join();
  for (auto& reader : readers) reader.join();
  failpoint::DisarmAll();

  EXPECT_GT(pinned_checks.load(), 0u);
  EXPECT_EQ(engine.num_tables(), static_cast<size_t>(kTotalTables));

  // Quiesced end state: one final compaction, then every strategy × query
  // must rank exactly like the from-scratch build over all the tables.
  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(engine.num_delta_segments(), 0u);
  for (size_t s = 0; s < kNumStrategies; ++s) {
    for (size_t q = 0; q < queries_.size(); ++q) {
      const auto hits = engine.Search(queries_[q], kTopK, kAllStrategies[s]);
      EXPECT_TRUE(SameHits(hits, Expected(kTotalTables, s, q)))
          << "post-run ranking drifted (strategy " << s << ", query " << q
          << ")";
    }
  }

  service.Shutdown(/*drain=*/true);
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, async_requests_);
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.failed + stats.deadline_expired);
  EXPECT_EQ(stats.ingest_batches, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.ingested_tables,
            static_cast<uint64_t>(kBatches * kBatchSize));
}

}  // namespace
}  // namespace fcm
