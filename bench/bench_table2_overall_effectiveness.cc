// Reproduces Table II: overall effectiveness (prec@k, ndcg@k) of CML,
// DE-LN, Opt-LN, Qetch*, and FCM on all queries and on the with/without
// data-aggregation splits.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"

namespace fcm {
namespace {

int Run() {
  const bench::BenchScale scale = bench::ReadScale();
  bench::PrintHeader(
      "Table II: Effectiveness for all queries and with/without DA",
      "paper Sec. VII-C, Table II", scale);
  const benchgen::Benchmark b = bench::BuildBench(scale);

  const core::FcmConfig model_config{};
  const core::TrainOptions train_options =
      bench::DefaultTrainOptions(scale);

  // LineNet is shared by DE-LN and Opt-LN and trained once.
  baselines::LineNetConfig linenet_config;
  auto linenet =
      std::make_shared<baselines::LineNetLite>(linenet_config);
  baselines::TrainLineNet(linenet.get(), b.lake, b.training);

  std::vector<std::unique_ptr<baselines::RetrievalMethod>> methods;
  methods.push_back(
      std::make_unique<baselines::CmlMethod>(model_config, train_options));
  methods.push_back(std::make_unique<baselines::DeLnMethod>(
      linenet, /*train_on_fit=*/false));
  methods.push_back(std::make_unique<baselines::OptLnMethod>(
      linenet, /*train_on_fit=*/false));
  methods.push_back(std::make_unique<baselines::QetchStarMethod>());
  methods.push_back(
      std::make_unique<baselines::FcmMethod>(model_config, train_options));

  std::vector<eval::MethodResults> results;
  for (auto& method : methods) {
    std::printf("fitting %s ...\n", method->name());
    std::fflush(stdout);
    method->Fit(b.lake, b.training);
    results.push_back(eval::EvaluateMethod(*method, b));
  }

  auto header = std::vector<std::string>{"", "Metrics"};
  for (const auto& r : results) header.push_back(r.method_name);

  eval::ReportTable table(header);
  auto add_rows = [&](const char* split,
                      auto agg_of) {
    std::vector<std::string> prec_row = {split,
                                         "prec@" + std::to_string(scale.k)};
    std::vector<std::string> ndcg_row = {"",
                                         "ndcg@" + std::to_string(scale.k)};
    for (const auto& r : results) {
      const eval::Aggregate a = agg_of(r);
      prec_row.push_back(bench::PrecCell(a));
      ndcg_row.push_back(bench::NdcgCell(a));
    }
    table.AddRow(prec_row);
    table.AddRow(ndcg_row);
  };
  add_rows("Overall",
           [](const eval::MethodResults& r) { return r.Overall(); });
  add_rows("With DA",
           [](const eval::MethodResults& r) { return r.WithDa(); });
  add_rows("Without DA",
           [](const eval::MethodResults& r) { return r.WithoutDa(); });
  table.Print();

  std::printf(
      "\nPaper (Table II) overall: CML 0.349/0.246, DE-LN 0.224/0.162, "
      "Opt-LN 0.287/0.211, Qetch* 0.256/0.179, FCM 0.454/0.347.\n"
      "Expected shape: FCM best overall; every method drops on DA "
      "queries; FCM drops least.\n");
  return 0;
}

}  // namespace
}  // namespace fcm

int main() { return fcm::Run(); }
