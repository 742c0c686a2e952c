// Reproduces Table III: effectiveness stratified by the number of lines M
// (1, 2-4, 5-7, >7) for all five methods.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"

namespace fcm {
namespace {

int Run() {
  const bench::BenchScale scale = bench::ReadScale();
  bench::PrintHeader("Table III: Overall effectiveness w.r.t. varying M",
                     "paper Sec. VII-C, Table III", scale);
  const benchgen::Benchmark b = bench::BuildBench(scale);

  const core::FcmConfig model_config{};
  const core::TrainOptions train_options =
      bench::DefaultTrainOptions(scale);

  baselines::LineNetConfig linenet_config;
  auto linenet = std::make_shared<baselines::LineNetLite>(linenet_config);
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

  auto header = std::vector<std::string>{"M", "Metrics"};
  for (const auto& r : results) header.push_back(r.method_name);
  eval::ReportTable table(header);
  for (int bucket = 0; bucket < 4; ++bucket) {
    std::vector<std::string> prec_row = {
        benchgen::Benchmark::LineCountBucketName(bucket),
        "prec@" + std::to_string(scale.k)};
    std::vector<std::string> ndcg_row = {
        "", "ndcg@" + std::to_string(scale.k)};
    for (const auto& r : results) {
      const eval::Aggregate a = r.ByLineBucket(bucket);
      prec_row.push_back(bench::PrecCell(a));
      ndcg_row.push_back(bench::NdcgCell(a));
    }
    table.AddRow(prec_row);
    table.AddRow(ndcg_row);
  }
  table.Print();

  std::printf(
      "\nPaper (Table III): effectiveness decreases with M for every "
      "method; FCM stays best in every stratum and its margin over CML "
      "grows with M.\n");
  return 0;
}

}  // namespace
}  // namespace fcm

int main() { return fcm::Run(); }
