// End-to-end integration tests: benchmark -> train -> index -> search,
// plus the numerical-x-axis generalization path (paper Sec. VI-B).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "benchgen/benchmark.h"
#include "core/fcm_model.h"
#include "core/training.h"
#include "eval/metrics.h"
#include "index/search_engine.h"
#include "table/resample.h"
#include "vision/classical_extractor.h"
#include "vision/mask_oracle_extractor.h"

namespace fcm {
namespace {

core::FcmConfig TinyConfig() {
  core::FcmConfig config;
  config.embed_dim = 16;
  config.num_heads = 2;
  config.num_layers = 1;
  config.mlp_hidden = 32;
  config.strip_height = 16;
  config.strip_width = 64;
  config.line_segment_width = 16;
  config.column_length = 64;
  config.data_segment_size = 16;
  return config;
}

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    benchgen::BenchmarkConfig config;
    config.num_training_tables = 10;
    config.num_query_tables = 4;
    config.extra_lake_tables = 12;
    config.duplicates_per_query = 3;
    config.ground_truth_k = 3;
    config.seed = 404;
    vision::ClassicalExtractor extractor;
    bench_ = new benchgen::Benchmark(BuildBenchmark(config, extractor));

    model_ = new core::FcmModel(TinyConfig());
    core::TrainOptions options;
    options.epochs = 4;
    options.pretrain_pairs = 32;
    options.pretrain_epochs = 2;
    core::TrainFcm(model_, bench_->lake, bench_->training, options);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete bench_;
    model_ = nullptr;
    bench_ = nullptr;
  }

  static benchgen::Benchmark* bench_;
  static core::FcmModel* model_;
};

benchgen::Benchmark* PipelineTest::bench_ = nullptr;
core::FcmModel* PipelineTest::model_ = nullptr;

TEST_F(PipelineTest, TrainedModelBeatsInvertedRanking) {
  // The trained model's ranking must be no worse than the anti-ranking
  // (sanity floor: scores carry signal, not noise).
  index::SearchEngine engine(model_, &bench_->lake);
  engine.BuildWithOptions({});
  double prec = 0.0, anti = 0.0;
  for (const auto& q : bench_->queries) {
    const auto hits =
        engine.Search(q.extracted, static_cast<int>(bench_->lake.size()),
                      index::IndexStrategy::kNoIndex);
    std::vector<table::TableId> ranked, reversed;
    for (const auto& h : hits) ranked.push_back(h.table_id);
    reversed.assign(ranked.rbegin(), ranked.rend());
    prec += eval::PrecisionAtK(ranked, q.relevant, 3);
    anti += eval::PrecisionAtK(reversed, q.relevant, 3);
  }
  EXPECT_GE(prec, anti);
}

TEST_F(PipelineTest, SearchAfterSaveLoadIsIdentical) {
  const std::string path = "/tmp/fcm_integration_model.bin";
  ASSERT_TRUE(model_->SaveToFile(path).ok());
  core::FcmModel restored(TinyConfig());
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  std::remove(path.c_str());

  index::SearchEngine original(model_, &bench_->lake);
  original.BuildWithOptions({});
  index::SearchEngine reloaded(&restored, &bench_->lake);
  reloaded.BuildWithOptions({});
  const auto& q = bench_->queries.front();
  const auto a = original.Search(q.extracted, 5,
                                 index::IndexStrategy::kNoIndex);
  const auto b = reloaded.Search(q.extracted, 5,
                                 index::IndexStrategy::kNoIndex);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].table_id, b[i].table_id);
    EXPECT_NEAR(a[i].score, b[i].score, 1e-6);
  }
}

TEST_F(PipelineTest, XDerivationIndexingFindsShuffledTable) {
  // Build a table whose rows are shuffled: as stored, its columns do not
  // resemble the chart; sorted by its x column they do (Sec. VI-B).
  common::Rng rng(77);
  const size_t n = 96;
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i);
    y[i] = std::sin(static_cast<double>(i) * 0.15) * 9.0;
  }
  // The query chart plots y over even steps.
  table::DataSeries series;
  series.y = y;
  vision::MaskOracleExtractor oracle;
  const auto query =
      oracle.Extract(chart::RenderLineChart({series})).value();

  // Shuffle rows jointly.
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  rng.Shuffle(&perm);
  table::Table shuffled;
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = x[perm[i]];
    ys[i] = y[perm[i]];
  }
  shuffled.AddColumn(table::Column("x", xs));
  shuffled.AddColumn(table::Column("y", ys));

  table::DataLake lake;
  const auto tid = lake.Add(std::move(shuffled));

  index::SearchEngine plain(model_, &lake);
  plain.BuildWithOptions({});
  index::SearchEngineOptions options;
  options.index_x_derivations = true;
  index::SearchEngine derived(model_, &lake);
  derived.BuildWithOptions(options);

  const auto plain_hits =
      plain.Search(query, 1, index::IndexStrategy::kNoIndex);
  const auto derived_hits =
      derived.Search(query, 1, index::IndexStrategy::kNoIndex);
  ASSERT_EQ(plain_hits.size(), 1u);
  ASSERT_EQ(derived_hits.size(), 1u);
  EXPECT_EQ(derived_hits[0].table_id, tid);
  // The derivation-aware score is at least the plain score (max over
  // derivations) and should strictly improve for shuffled rows.
  EXPECT_GE(derived_hits[0].score, plain_hits[0].score - 1e-9);
}

TEST(XDerivationUnitTest, SortRestoresShape) {
  // Direct check that ResampleByXColumn undoes a row shuffle.
  common::Rng rng(9);
  const size_t n = 50;
  table::Table t;
  std::vector<double> x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i);
    y[i] = static_cast<double>(i) * 2.0;
  }
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  rng.Shuffle(&perm);
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = x[perm[i]];
    ys[i] = y[perm[i]];
  }
  t.AddColumn(table::Column("x", xs));
  t.AddColumn(table::Column("y", ys));
  const auto sorted = table::ResampleByXColumn(t, 0, 50);
  ASSERT_TRUE(sorted.ok());
  const auto& yv = sorted.value().column(1).values;
  for (size_t i = 1; i < yv.size(); ++i) {
    EXPECT_GT(yv[i], yv[i - 1]);  // Monotone again after sorting.
  }
}

}  // namespace
}  // namespace fcm
