// Journalism fact-checking scenario (paper Sec. I, application 1):
// a journalist sees a widely shared line chart and wants to trace the
// original dataset behind it. The chart circulated as an image — no data
// attached — and the newsroom's data lake is large, so we use the trained
// FCM model behind the hybrid interval-tree + LSH index (paper Sec. VI)
// and compare pruning strategies on this single query.

#include <cstdio>

#include "benchgen/benchmark.h"
#include "core/fcm_model.h"
#include "core/training.h"
#include "index/search_engine.h"
#include "vision/classical_extractor.h"

int main() {
  using namespace fcm;

  benchgen::BenchmarkConfig config;
  config.num_training_tables = 30;
  config.num_query_tables = 4;
  config.extra_lake_tables = 100;
  config.duplicates_per_query = 5;
  config.ground_truth_k = 5;
  config.da_query_fraction = 0.0;  // The published chart plots raw data.
  vision::ClassicalExtractor extractor;
  std::printf("assembling the newsroom data lake ...\n");
  const benchgen::Benchmark bench = BuildBenchmark(config, extractor);

  core::FcmConfig model_config;
  core::FcmModel model(model_config);
  core::TrainOptions train_options;
  train_options.epochs = 20;
  std::printf("training the relevance model ...\n");
  core::TrainFcm(&model, bench.lake, bench.training, train_options);

  std::printf("indexing %zu candidate datasets ...\n", bench.lake.size());
  index::SearchEngine engine(&model, &bench.lake);
  engine.BuildWithOptions({});

  // The "viral chart": a query whose source table hides in the lake.
  const benchgen::QueryRecord& viral = bench.queries.front();
  std::printf(
      "\nfact-check request: %d-line chart, y in [%.2f, %.2f] — which "
      "dataset produced it?\n\n",
      viral.extracted.num_lines(), viral.y_lo, viral.y_hi);

  for (const auto strategy :
       {index::IndexStrategy::kNoIndex, index::IndexStrategy::kHybrid}) {
    index::QueryStats stats;
    const auto hits = engine.Search(viral.extracted, 3, strategy, &stats);
    std::printf("%s: scored %zu candidates in %.1f ms\n",
                index::IndexStrategyName(strategy), stats.candidates_scored,
                stats.seconds * 1000.0);
    for (size_t i = 0; i < hits.size(); ++i) {
      const auto& t = bench.lake.Get(hits[i].table_id);
      const bool is_source_family =
          t.name().rfind(bench.lake.Get(viral.source_table).name(), 0) == 0;
      std::printf("   %zu. %-20s score=%.3f%s\n", i + 1, t.name().c_str(),
                  hits[i].score,
                  is_source_family ? "  <-- the source (or a near copy)"
                                   : "");
    }
  }

  std::printf(
      "\nIf the top hit is the source table (or one of its noisy "
      "near-duplicates), the chart's provenance is confirmed and the "
      "journalist can pull the raw numbers for verification.\n");
  return 0;
}
