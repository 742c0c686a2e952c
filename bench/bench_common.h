// Shared setup for the paper-reproduction bench binaries: benchmark
// construction at a CPU-friendly scale (overridable via FCM_SCALE,
// FCM_EPOCHS and FCM_TRAIN_TABLES environment variables) and method training helpers.

#ifndef FCM_PAPER_BENCH_COMMON_H_
#define FCM_PAPER_BENCH_COMMON_H_

#include <memory>
#include <string>

#include "baselines/cml.h"
#include "baselines/de_ln.h"
#include "baselines/fcm_method.h"
#include "baselines/qetch.h"
#include "benchgen/benchmark.h"
#include "core/fcm_config.h"
#include "core/training.h"
#include "eval/experiment.h"
#include "eval/report.h"

namespace fcm::bench {

/// Scale knobs for a bench run. Defaults reproduce the paper's shapes in
/// minutes on a CPU; FCM_SCALE=large doubles the corpus, FCM_SCALE=small
/// halves it (for quick sanity runs). FCM_EPOCHS overrides training
/// epochs.
struct BenchScale {
  int training_tables = 32;   // x2 charts/table = 64 triplets.
  int query_tables = 12;
  int extra_tables = 60;
  int duplicates = 6;
  int k = 6;
  int epochs = 12;
  uint64_t seed = 2024;
};

/// Reads the scale from the environment.
BenchScale ReadScale();

/// Builds the shared benchmark for a scale (classical extractor pipeline).
benchgen::Benchmark BuildBench(const BenchScale& scale,
                               double da_fraction = 0.5);

/// Training options matching the scale.
core::TrainOptions DefaultTrainOptions(const BenchScale& scale);

/// Prints the standard bench header (what is being reproduced).
void PrintHeader(const std::string& title, const std::string& paper_ref,
                 const BenchScale& scale);

/// Formats an Aggregate pair as "prec / ndcg" cells.
std::string PrecCell(const eval::Aggregate& a);
std::string NdcgCell(const eval::Aggregate& a);

}  // namespace fcm::bench

#endif  // FCM_PAPER_BENCH_COMMON_H_
