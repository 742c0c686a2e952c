// Epoch-equivalence property suite for the live-ingestion subsystem
// (ctest label `ingest`): for randomized append schedules, every pinned
// epoch must rank EXPECT_EQ-bit-identically to a from-scratch Build over
// the same logical tables — across thread counts, all four strategies,
// both precision modes, the prefilter, Search vs SearchBatch vs the async
// service — and compaction must change neither a pinned epoch's results
// nor the current epoch's. This is the proof of the PR's determinism
// contract; the concurrent interleavings live in ingest_stress_test.cc.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chart/renderer.h"
#include "common/rng.h"
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

const idx::IndexStrategy kAllStrategies[] = {
    idx::IndexStrategy::kNoIndex, idx::IndexStrategy::kIntervalTree,
    idx::IndexStrategy::kLsh, idx::IndexStrategy::kHybrid};

void ExpectSameHits(const std::vector<idx::SearchHit>& a,
                    const std::vector<idx::SearchHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].table_id, b[i].table_id) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

/// The i-th synthetic table — a pure function of i, so the same logical
/// lake can be assembled as base + any append schedule or all at once.
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

constexpr int kTotalTables = 12;

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
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

  idx::SearchEngineOptions Options(int threads,
                                   idx::EmbeddingPrecision precision =
                                       idx::EmbeddingPrecision::kFloat32,
                                   int prefilter = 0) const {
    idx::SearchEngineOptions options;
    options.num_threads = threads;
    options.precision = precision;
    options.mean_prefilter = prefilter;
    return options;
  }

  /// From-scratch reference: one Build over tables [0, n) — the ground
  /// truth every pinned epoch of the same logical contents must match
  /// bit for bit. Owns its lake (engines only read it during Build).
  struct Reference {
    std::unique_ptr<table::DataLake> lake;
    std::unique_ptr<idx::SearchEngine> engine;
  };
  Reference BuildReference(int n, const idx::SearchEngineOptions& options) {
    Reference ref;
    ref.lake = std::make_unique<table::DataLake>();
    for (auto& t : MakeTables(0, n)) ref.lake->Add(std::move(t));
    ref.engine =
        std::make_unique<idx::SearchEngine>(model_.get(), ref.lake.get());
    ref.engine->BuildWithOptions(options);
    return ref;
  }

  /// Every query × strategy ranking of `engine` (pinned to `pin` when
  /// given) must equal the from-scratch reference, via both Search and
  /// SearchBatch.
  void ExpectMatchesReference(const idx::SearchEngine& engine,
                              const idx::EpochPin& pin,
                              const idx::SearchEngine& reference) {
    for (const auto strategy : kAllStrategies) {
      const auto batched = engine.SearchBatch(queries_, 5, strategy,
                                              /*stats=*/nullptr, pin);
      ASSERT_EQ(batched.size(), queries_.size());
      for (size_t q = 0; q < queries_.size(); ++q) {
        const auto expected = reference.Search(queries_[q], 5, strategy);
        ExpectSameHits(expected,
                       engine.Search(queries_[q], 5, strategy,
                                     /*stats=*/nullptr, pin));
        ExpectSameHits(expected, batched[q]);
      }
    }
  }

  std::unique_ptr<core::FcmModel> model_;
  std::vector<vision::ExtractedChart> queries_;
};

TEST_F(IngestTest, RandomAppendSchedulesMatchFromScratchBuilds) {
  // Randomized schedules: split tables [base, kTotalTables) into random
  // batch sizes, ingest them one batch at a time, and require every epoch
  // along the way — pinned and kept alive — to rank exactly like a
  // from-scratch Build over its prefix. Exercised at two thread counts
  // against references built at a third, so the equivalence subsumes the
  // thread-count determinism contract.
  for (const uint64_t seed : {7u, 41u}) {
    common::Rng rng(seed);
    const int base = 4 + static_cast<int>(rng.UniformInt(3));  // 4..6 tables.
    std::vector<int> prefix_after_batch;  // Table count after each ingest.
    for (int next = base; next < kTotalTables;) {
      next += 1 + static_cast<int>(rng.UniformInt(3));  // Batches of 1..3.
      prefix_after_batch.push_back(std::min(next, kTotalTables));
    }
    for (const int threads : {1, 3}) {
      const auto options = Options(threads);
      table::DataLake lake;
      for (auto& t : MakeTables(0, base)) lake.Add(std::move(t));
      idx::SearchEngine engine(model_.get(), &lake);
      engine.BuildWithOptions(options);

      // Pin every epoch as it is published; verify them all at the end so
      // later ingests provably did not disturb earlier generations.
      std::vector<idx::EpochPin> pins = {engine.PinEpoch()};
      int prev = base;
      for (const int prefix : prefix_after_batch) {
        idx::IngestStats stats;
        ASSERT_TRUE(engine.IngestBatch(MakeTables(prev, prefix), &stats).ok());
        EXPECT_EQ(stats.tables, static_cast<size_t>(prefix - prev));
        EXPECT_EQ(stats.epoch_id, pins.size());
        pins.push_back(engine.PinEpoch());
        EXPECT_EQ(pins.back()->num_tables(), static_cast<size_t>(prefix));
        prev = prefix;
      }
      ASSERT_EQ(engine.num_tables(), static_cast<size_t>(kTotalTables));

      std::vector<int> prefixes = {base};
      prefixes.insert(prefixes.end(), prefix_after_batch.begin(),
                      prefix_after_batch.end());
      for (size_t e = 0; e < pins.size(); ++e) {
        const auto reference = BuildReference(prefixes[e], Options(2));
        ExpectMatchesReference(engine, pins[e], *reference.engine);
      }
    }
  }
}

TEST_F(IngestTest, CompactionChangesNoResultsAndEnablesSnapshots) {
  const auto options = Options(2);
  table::DataLake lake;
  for (auto& t : MakeTables(0, 6)) lake.Add(std::move(t));
  idx::SearchEngine engine(model_.get(), &lake);
  engine.BuildWithOptions(options);
  ASSERT_TRUE(engine.IngestBatch(MakeTables(6, 9)).ok());
  ASSERT_TRUE(engine.IngestBatch(MakeTables(9, kTotalTables)).ok());

  const idx::EpochPin delta_pin = engine.PinEpoch();
  EXPECT_EQ(delta_pin->num_segments(), 3u);
  EXPECT_EQ(engine.num_delta_segments(), 2u);

  // Multi-segment epochs refuse SaveSnapshot (the format is one base).
  const std::string path = ::testing::TempDir() + "/ingested.fcmsnap";
  EXPECT_FALSE(engine.SaveSnapshot(path).ok());

  idx::CompactStats stats;
  ASSERT_TRUE(engine.Compact(&stats).ok());
  EXPECT_EQ(stats.segments_merged, 3u);
  EXPECT_EQ(engine.num_delta_segments(), 0u);
  const idx::EpochPin compact_pin = engine.PinEpoch();
  EXPECT_EQ(compact_pin->num_segments(), 1u);
  EXPECT_EQ(compact_pin->id(), delta_pin->id() + 1);

  // Neither the still-pinned delta epoch nor the compacted one may differ
  // from the from-scratch ground truth by a single bit.
  const auto reference = BuildReference(kTotalTables, Options(2));
  ExpectMatchesReference(engine, delta_pin, *reference.engine);
  ExpectMatchesReference(engine, compact_pin, *reference.engine);

  // A second Compact is a published no-op epoch-wise: already compact.
  idx::CompactStats again;
  ASSERT_TRUE(engine.Compact(&again).ok());
  EXPECT_EQ(again.segments_merged, 1u);
  EXPECT_EQ(engine.PinEpoch()->id(), compact_pin->id());

  // Compacted epochs snapshot; the opened engine ranks identically and
  // accepts further ingestion.
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  auto opened = idx::SearchEngine::OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectMatchesReference(*opened.value(), nullptr, *reference.engine);
  ASSERT_TRUE(opened.value()->IngestBatch(MakeTables(0, 2)).ok());
  EXPECT_EQ(opened.value()->num_tables(),
            static_cast<size_t>(kTotalTables + 2));
  std::remove(path.c_str());
}

TEST_F(IngestTest, Int8AndPrefilterEnginesHoldTheContract) {
  // The epoch equivalence must hold per configuration: int8 means tier
  // and the mean-similarity prefilter both read per-segment blocks.
  for (const auto precision : {idx::EmbeddingPrecision::kFloat32,
                               idx::EmbeddingPrecision::kInt8}) {
    const auto options = Options(2, precision, /*prefilter=*/4);
    table::DataLake lake;
    for (auto& t : MakeTables(0, 6)) lake.Add(std::move(t));
    idx::SearchEngine engine(model_.get(), &lake);
    engine.BuildWithOptions(options);
    ASSERT_TRUE(engine.IngestBatch(MakeTables(6, 10)).ok());
    ASSERT_TRUE(engine.IngestBatch(MakeTables(10, kTotalTables)).ok());
    const auto reference =
        BuildReference(kTotalTables, Options(1, precision, 4));
    ExpectMatchesReference(engine, nullptr, *reference.engine);
    ASSERT_TRUE(engine.Compact(nullptr).ok());
    ExpectMatchesReference(engine, nullptr, *reference.engine);
  }
}

TEST_F(IngestTest, WriterApiEdgeCases) {
  table::DataLake lake;
  for (auto& t : MakeTables(0, 4)) lake.Add(std::move(t));
  idx::SearchEngine unbuilt(model_.get(), &lake);
  EXPECT_FALSE(unbuilt.IngestBatch(MakeTables(0, 1)).ok());
  EXPECT_FALSE(unbuilt.Compact(nullptr).ok());
  EXPECT_EQ(unbuilt.num_tables(), 0u);

  idx::SearchEngine engine(model_.get(), &lake);
  engine.BuildWithOptions(Options(1));
  EXPECT_EQ(engine.epoch_id(), 0u);
  // An empty batch publishes nothing.
  idx::IngestStats stats;
  ASSERT_TRUE(engine.IngestBatch({}, &stats).ok());
  EXPECT_EQ(stats.tables, 0u);
  EXPECT_EQ(engine.epoch_id(), 0u);
  EXPECT_EQ(engine.num_tables(), 4u);
}

TEST_F(IngestTest, AsyncServiceServesIngestAndCompactUnderCoalescing) {
  const auto options = Options(2);
  table::DataLake lake;
  for (auto& t : MakeTables(0, 6)) lake.Add(std::move(t));
  idx::SearchEngine engine(model_.get(), &lake);
  engine.BuildWithOptions(options);

  idx::AsyncServiceOptions service_options;
  service_options.max_batch_size = 4;
  service_options.max_batch_delay_ms = 0.5;
  idx::AsyncSearchService service(&engine, service_options);

  const auto expect_async_matches = [&](const idx::SearchEngine& reference) {
    for (const auto strategy : kAllStrategies) {
      std::vector<std::future<std::vector<idx::SearchHit>>> futures;
      for (const auto& q : queries_) {
        futures.push_back(service.Submit(q, 5, strategy));
      }
      for (size_t q = 0; q < queries_.size(); ++q) {
        ExpectSameHits(reference.Search(queries_[q], 5, strategy),
                       futures[q].get());
      }
    }
  };

  // Quiesced equivalence at every generation: base, post-ingest,
  // post-compact. (The racing interleavings are ingest_stress_test.cc's
  // job; here the async service must be exact whenever the epoch under
  // its feet is fixed.)
  {
    const auto reference = BuildReference(6, Options(2));
    expect_async_matches(*reference.engine);
  }
  idx::IngestStats ingest_stats;
  ASSERT_TRUE(
      service.Ingest(MakeTables(6, kTotalTables), &ingest_stats).ok());
  EXPECT_EQ(ingest_stats.tables, static_cast<size_t>(kTotalTables - 6));
  {
    const auto reference = BuildReference(kTotalTables, Options(2));
    expect_async_matches(*reference.engine);
    idx::CompactStats compact_stats;
    ASSERT_TRUE(service.Compact(&compact_stats).ok());
    EXPECT_EQ(compact_stats.segments_merged, 2u);
    expect_async_matches(*reference.engine);
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.ingest_batches, 1u);
  EXPECT_EQ(stats.ingested_tables, static_cast<size_t>(kTotalTables - 6));
  EXPECT_EQ(stats.compactions, 1u);
  service.Shutdown();

  // A service over a const engine has no writer side.
  idx::AsyncSearchService reader_only(
      static_cast<const idx::SearchEngine*>(&engine));
  EXPECT_FALSE(reader_only.Ingest(MakeTables(0, 1)).ok());
  EXPECT_FALSE(reader_only.Compact(nullptr).ok());
  reader_only.Shutdown();
}

}  // namespace
}  // namespace fcm
