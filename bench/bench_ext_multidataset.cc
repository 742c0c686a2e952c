// Future-work extension (paper Sec. IX "Multiple datasets"): line charts
// whose lines originate from different tables joined on a shared x value.
// Compares per-line assignment (core/multi_dataset.h) against naive
// whole-chart scoring, measuring recall of the true source-table set.

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "benchgen/futurework.h"
#include "core/multi_dataset.h"
#include "vision/classical_extractor.h"

namespace fcm {
namespace {

/// Fraction of the true source tables recovered in the first `k` entries
/// of `ranked`.
double RecallAtK(const std::vector<table::TableId>& ranked,
                 const std::vector<table::TableId>& sources, size_t k) {
  size_t hit = 0;
  const size_t end = std::min(k, ranked.size());
  for (const auto tid : sources) {
    if (std::find(ranked.begin(), ranked.begin() + static_cast<long>(end),
                  tid) != ranked.begin() + static_cast<long>(end)) {
      ++hit;
    }
  }
  return sources.empty()
             ? 0.0
             : static_cast<double>(hit) / static_cast<double>(sources.size());
}

int Run() {
  const bench::BenchScale scale = bench::ReadScale();
  bench::PrintHeader(
      "Extension: multi-dataset queries (lines from different tables)",
      "paper Sec. IX future work, 'Multiple datasets'", scale);

  benchgen::Benchmark b = bench::BuildBench(scale);
  vision::ClassicalExtractor extractor;
  benchgen::FutureworkConfig ext_config;
  ext_config.num_queries = scale.query_tables;
  ext_config.chart_style = b.config.chart_style;
  const auto queries = benchgen::MakeMultiDatasetQueries(
      &b, extractor, ext_config, /*num_sources=*/2);
  std::printf("%zu multi-dataset queries (2 sources each), lake %zu\n",
              queries.size(), b.lake.size());

  std::printf("fitting FCM ...\n");
  std::fflush(stdout);
  baselines::FcmMethod fcm(core::FcmConfig(),
                           bench::DefaultTrainOptions(scale));
  fcm.Fit(b.lake, b.training);
  const core::FcmModel& model = *fcm.model();

  // Pre-encode the lake once for both strategies.
  std::vector<core::DatasetRepresentation> encodings;
  encodings.reserve(b.lake.size());
  for (const auto& t : b.lake.tables()) {
    encodings.push_back(core::FcmModel::Detach(model.EncodeDataset(t)));
  }

  const size_t k_set = 2;    // |source set|.
  const size_t k_wide = 5;   // A wider budget.
  double per_line_r2 = 0.0, per_line_r5 = 0.0;
  double whole_r2 = 0.0, whole_r5 = 0.0;
  int n = 0;
  core::MultiDatasetOptions md_options;
  md_options.per_line_k = static_cast<int>(k_wide);
  md_options.encodings = &encodings;

  for (const auto& q : queries) {
    if (q.extracted.lines.empty()) continue;
    // Strategy A: per-line assignment.
    const auto result =
        core::DiscoverMultiDataset(model, q.extracted, b.lake, md_options);
    per_line_r2 += RecallAtK(result.tables, q.source_tables, k_set);
    per_line_r5 += RecallAtK(result.tables, q.source_tables, k_wide);

    // Strategy B: whole-chart scoring (what plain FCM would do).
    const auto chart_rep =
        core::FcmModel::Detach(model.EncodeChart(q.extracted));
    std::vector<std::pair<double, table::TableId>> scored;
    for (const auto& t : b.lake.tables()) {
      scored.emplace_back(
          model.ScoreEncoded(chart_rep,
                             encodings[static_cast<size_t>(t.id())], q.y_lo,
                             q.y_hi),
          t.id());
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<table::TableId> ranked;
    for (const auto& [s, tid] : scored) ranked.push_back(tid);
    whole_r2 += RecallAtK(ranked, q.source_tables, k_set);
    whole_r5 += RecallAtK(ranked, q.source_tables, k_wide);
    ++n;
  }
  if (n == 0) {
    std::printf("no queries extracted; aborting\n");
    return 1;
  }

  eval::ReportTable table({"Strategy", "recall@2", "recall@5"});
  table.AddRow({"per-line assignment", eval::Fmt3(per_line_r2 / n),
                eval::Fmt3(per_line_r5 / n)});
  table.AddRow({"whole-chart scoring", eval::Fmt3(whole_r2 / n),
                eval::Fmt3(whole_r5 / n)});
  table.Print();

  std::printf(
      "\nExpected shape: per-line assignment recovers more of the true\n"
      "source set than whole-chart scoring, which can only surface one\n"
      "table per query (paper Sec. IX motivates exactly this split).\n");
  return 0;
}

}  // namespace
}  // namespace fcm

int main() { return fcm::Run(); }
