// Index scaling demo: how the hybrid interval-tree + LSH pipeline (paper
// Sec. VI) changes query latency and candidate counts as the data lake
// grows. Run after the quickstart to see why the paper bothers with
// indexing at 10k+ tables.

#include <cstdio>
#include <vector>

#include "benchgen/benchmark.h"
#include "benchgen/series_generator.h"
#include "core/fcm_model.h"
#include "core/training.h"
#include "index/search_engine.h"
#include "vision/classical_extractor.h"

int main() {
  using namespace fcm;

  // One trained model reused across lake sizes.
  benchgen::BenchmarkConfig config;
  config.num_training_tables = 24;
  config.num_query_tables = 4;
  config.extra_lake_tables = 20;
  config.duplicates_per_query = 4;
  config.ground_truth_k = 4;
  vision::ClassicalExtractor extractor;
  benchgen::Benchmark bench = BuildBenchmark(config, extractor);

  core::FcmConfig model_config;
  core::FcmModel model(model_config);
  core::TrainOptions train_options;
  train_options.epochs = 12;
  std::printf("training FCM once ...\n");
  core::TrainFcm(&model, bench.lake, bench.training, train_options);

  std::printf("\n%-10s %-10s %-14s %-14s %-12s\n", "lake size", "strategy",
              "query ms", "candidates", "speedup");
  common::Rng rng(99);
  for (const int extra : {0, 200, 600}) {
    // Grow the lake with additional background tables.
    for (int i = 0; i < extra; ++i) {
      table::Table t;
      for (int c = 0; c < 4; ++c) {
        t.AddColumn(table::Column(
            "c" + std::to_string(c),
            benchgen::GenerateSeries(benchgen::RandomFamily(&rng), 150,
                                     &rng)));
      }
      t.set_name("grown_" + std::to_string(extra) + "_" +
                 std::to_string(i));
      bench.lake.Add(std::move(t));
    }
    index::SearchEngine engine(&model, &bench.lake);
    engine.BuildWithOptions({});

    double linear_ms = 0.0;
    for (const auto strategy : {index::IndexStrategy::kNoIndex,
                                index::IndexStrategy::kIntervalTree,
                                index::IndexStrategy::kHybrid}) {
      double total_ms = 0.0;
      size_t candidates = 0;
      for (const auto& q : bench.queries) {
        index::QueryStats stats;
        engine.Search(q.extracted, 5, strategy, &stats);
        total_ms += stats.seconds * 1000.0;
        candidates += stats.candidates_scored;
      }
      total_ms /= static_cast<double>(bench.queries.size());
      candidates /= bench.queries.size();
      if (strategy == index::IndexStrategy::kNoIndex) linear_ms = total_ms;
      std::printf("%-10zu %-10s %-14.1f %-14zu %.1fx\n", bench.lake.size(),
                  index::IndexStrategyName(strategy), total_ms, candidates,
                  linear_ms / std::max(total_ms, 1e-9));
    }
  }
  std::printf(
      "\nThe hybrid index's advantage grows with the lake — the paper "
      "reports 41x at 10k tables.\n");
  return 0;
}
