#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "vision/classical_extractor.h"

namespace fcm::bench {

BenchScale ReadScale() {
  BenchScale scale;
  const char* env = std::getenv("FCM_SCALE");
  if (env != nullptr && std::strcmp(env, "small") == 0) {
    scale.training_tables = 24;
    scale.query_tables = 12;
    scale.extra_tables = 40;
    scale.duplicates = 5;
    scale.k = 5;
    scale.epochs = 12;
  } else if (env != nullptr && std::strcmp(env, "large") == 0) {
    scale.training_tables = 120;
    scale.query_tables = 40;
    scale.extra_tables = 240;
    scale.duplicates = 15;
    scale.k = 15;
    scale.epochs = 40;
  }
  const char* epochs = std::getenv("FCM_EPOCHS");
  if (epochs != nullptr) scale.epochs = std::atoi(epochs);
  const char* train_tables = std::getenv("FCM_TRAIN_TABLES");
  if (train_tables != nullptr) scale.training_tables = std::atoi(train_tables);
  return scale;
}

benchgen::Benchmark BuildBench(const BenchScale& scale, double da_fraction) {
  benchgen::BenchmarkConfig config;
  config.num_training_tables = scale.training_tables;
  config.num_query_tables = scale.query_tables;
  config.extra_lake_tables = scale.extra_tables;
  config.duplicates_per_query = scale.duplicates;
  config.ground_truth_k = scale.k;
  config.da_query_fraction = da_fraction;
  config.seed = scale.seed;
  vision::ClassicalExtractor extractor;
  return benchgen::BuildBenchmark(config, extractor);
}

core::TrainOptions DefaultTrainOptions(const BenchScale& scale) {
  core::TrainOptions options;
  options.epochs = scale.epochs;
  return options;
}

void PrintHeader(const std::string& title, const std::string& paper_ref,
                 const BenchScale& scale) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf(
      "Scale: %d training tables, %d queries, %d background tables, "
      "%d dups/query, k=%d, %d epochs\n",
      scale.training_tables, scale.query_tables, scale.extra_tables,
      scale.duplicates, scale.k, scale.epochs);
  std::printf(
      "(absolute numbers differ from the paper's GPU-scale setup; the\n"
      " comparison *shape* across methods/conditions is the target)\n");
  std::printf("==========================================================\n");
  std::fflush(stdout);
}

std::string PrecCell(const eval::Aggregate& a) { return eval::Fmt3(a.prec); }
std::string NdcgCell(const eval::Aggregate& a) { return eval::Fmt3(a.ndcg); }

}  // namespace fcm::bench
