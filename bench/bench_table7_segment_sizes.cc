// Reproduces Table VII: hyper-parameter study over the line segment width
// P1 and data segment size P2 (prec@k for every combination). The paper
// sweeps P1 in {15..240} px over W=?, P2 in {16..256}; scaled to our
// strip width 128 / column length 128, P1 and P2 sweep {8, 16, 64}.
// The expected shape: performance peaks at moderate sizes and degrades at
// both extremes.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace fcm {
namespace {

int Run() {
  bench::BenchScale scale = bench::ReadScale();
  // 16 models are trained; use a reduced budget per model so the sweep
  // finishes in minutes.
  scale.epochs = std::max(8, scale.epochs / 2);
  bench::PrintHeader("Table VII: impact of segment sizes P1 and P2",
                     "paper Sec. VII-E, Table VII", scale);
  const benchgen::Benchmark b = bench::BuildBench(scale);

  const std::vector<int> p1_values = {8, 16, 64};
  const std::vector<int> p2_values = {8, 16, 64};

  std::vector<std::string> header = {"P1 \\ P2"};
  for (int p2 : p2_values) header.push_back(std::to_string(p2));
  eval::ReportTable table(header);

  for (int p1 : p1_values) {
    std::vector<std::string> row = {std::to_string(p1)};
    for (int p2 : p2_values) {
      core::FcmConfig config;
      config.line_segment_width = p1;
      config.data_segment_size = p2;
      // beta must keep sub-segments at least 2 elements wide.
      while (config.SubSegmentSize() < 2 && config.beta > 0) --config.beta;
      core::TrainOptions train_options =
          bench::DefaultTrainOptions(scale);
      // 16 models: halve the pretraining budget per model.
      train_options.pretrain_pairs = 128;
      train_options.pretrain_epochs = 4;
      baselines::FcmMethod fcm(config, train_options);
      std::printf("fitting FCM with P1=%d P2=%d ...\n", p1, p2);
      std::fflush(stdout);
      fcm.Fit(b.lake, b.training);
      const eval::MethodResults results = eval::EvaluateMethod(fcm, b);
      row.push_back(bench::PrecCell(results.Overall()));
    }
    table.AddRow(row);
  }
  table.Print();

  std::printf(
      "\nPaper (Table VII): best prec at moderate (P1=60, P2=64); both "
      "very small and very large segments hurt.\n");
  return 0;
}

}  // namespace
}  // namespace fcm

int main() { return fcm::Run(); }
