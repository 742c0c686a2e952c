// Reproduces Table IX (appendix): impact of the number of negative
// samples N^- on effectiveness. Expected shape: rising to a plateau
// around N^- = 3, slight degradation for large N^-.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace fcm {
namespace {

int Run() {
  bench::BenchScale scale = bench::ReadScale();
  scale.epochs = std::max(8, scale.epochs / 2);  // 8 models trained.
  bench::PrintHeader("Table IX: impact of the number of negatives N^-",
                     "paper Appendix D, Table IX", scale);
  const benchgen::Benchmark b = bench::BuildBench(scale);

  eval::ReportTable table({"N^-", "prec@k", "ndcg@k"});
  for (const int n_neg : {1, 2, 3, 4, 6, 8}) {
    core::FcmConfig config;
    core::TrainOptions train_options = bench::DefaultTrainOptions(scale);
    // 8 models: halve the pretraining budget per model.
    train_options.pretrain_pairs = 128;
    train_options.pretrain_epochs = 4;
    train_options.num_negatives = n_neg;
    // Batches must be able to supply N^- distinct negatives.
    train_options.batch_size =
        std::max(train_options.batch_size, n_neg + 2);
    baselines::FcmMethod fcm(config, train_options);
    std::printf("fitting FCM with N^- = %d ...\n", n_neg);
    std::fflush(stdout);
    fcm.Fit(b.lake, b.training);
    const eval::MethodResults results = eval::EvaluateMethod(fcm, b);
    table.AddRow({std::to_string(n_neg),
                  bench::PrecCell(results.Overall()),
                  bench::NdcgCell(results.Overall())});
  }
  table.Print();

  std::printf(
      "\nPaper (Table IX): prec rises from 0.147 (N^-=1) to ~0.212 at "
      "N^-=3, then plateaus and slightly degrades at N^-=8.\n");
  return 0;
}

}  // namespace
}  // namespace fcm

int main() { return fcm::Run(); }
