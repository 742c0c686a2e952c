// Extra ablation (not a paper table; validates the Mask R-CNN
// substitution documented in docs/REPRODUCTION.md): extraction fidelity
// of the mask oracle, classical, and learned extractors on freshly
// rendered charts — line-count accuracy, per-value MAE relative to the y
// range, and y-range recovery error.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "benchgen/series_generator.h"
#include "chart/linechartseg.h"
#include "common/math_util.h"
#include "vision/classical_extractor.h"
#include "vision/learned_extractor.h"
#include "vision/mask_oracle_extractor.h"

namespace fcm {
namespace {

struct Fidelity {
  int charts = 0;
  int extraction_failures = 0;
  int correct_line_count = 0;
  double value_mae_sum = 0.0;  // Relative to the y range.
  int value_mae_count = 0;
  double range_err_sum = 0.0;
};

void Measure(const vision::VisualElementExtractor& extractor,
             const chart::RenderedChart& chart,
             const table::UnderlyingData& d, Fidelity* f) {
  ++f->charts;
  auto result = extractor.Extract(chart);
  if (!result.ok()) {
    ++f->extraction_failures;
    return;
  }
  const auto& ex = result.value();
  if (ex.num_lines() == static_cast<int>(d.size())) {
    ++f->correct_line_count;
  }
  const double span =
      chart.y_ticks_layout.axis_hi - chart.y_ticks_layout.axis_lo;
  f->range_err_sum +=
      (std::fabs(ex.y_lo - chart.y_ticks_layout.axis_lo) +
       std::fabs(ex.y_hi - chart.y_ticks_layout.axis_hi)) /
      (2.0 * span);
  // Match extracted lines to data series greedily by MAE (extraction
  // order is not guaranteed to equal plot order).
  const size_t lines = std::min<size_t>(ex.lines.size(), d.size());
  std::vector<bool> used(d.size(), false);
  for (size_t li = 0; li < lines; ++li) {
    double best = 1e300;
    size_t best_series = 0;
    for (size_t si = 0; si < d.size(); ++si) {
      if (used[si] || d[si].empty()) continue;
      const auto truth = common::ResampleLinear(
          d[si].y, ex.lines[li].values.size());
      double mae = 0.0;
      for (size_t i = 0; i < truth.size(); ++i) {
        mae += std::fabs(truth[i] - ex.lines[li].values[i]);
      }
      mae /= static_cast<double>(truth.size());
      if (mae < best) {
        best = mae;
        best_series = si;
      }
    }
    used[best_series] = true;
    f->value_mae_sum += best / span;
    ++f->value_mae_count;
  }
}

int Run() {
  const bench::BenchScale scale = bench::ReadScale();
  bench::PrintHeader(
      "Extractor ablation: mask oracle vs classical vs learned (LCSeg)",
      "validates the Mask R-CNN substitution in docs/REPRODUCTION.md "
      "(paper Sec. IV-A)",
      scale);

  // Train the learned pixel classifier on LineChartSeg examples.
  common::Rng rng(scale.seed + 5);
  std::vector<chart::SegExample> seg_train;
  for (int i = 0; i < 12; ++i) {
    table::Table t;
    const int cols = 1 + static_cast<int>(rng.UniformInt(3));
    for (int c = 0; c < cols; ++c) {
      t.AddColumn(table::Column(
          "c" + std::to_string(c),
          benchgen::GenerateSeries(benchgen::RandomFamily(&rng), 120,
                                   &rng)));
    }
    chart::VisSpec spec;
    for (int c = 0; c < cols; ++c) spec.y_columns.push_back(c);
    const auto examples = chart::GenerateLineChartSeg(
        t, spec, /*augmentations=*/2, chart::ChartStyle{}, &rng);
    seg_train.insert(seg_train.end(), examples.begin(), examples.end());
  }
  vision::SegClassifier classifier;
  std::printf("training LCSeg pixel classifier on %zu LineChartSeg "
              "examples ...\n", seg_train.size());
  std::fflush(stdout);
  classifier.Train(seg_train);

  vision::MaskOracleExtractor oracle;
  vision::ClassicalExtractor classical;
  vision::LearnedExtractor learned(&classifier);

  Fidelity fo, fc, fl;
  const int charts = 40;
  for (int i = 0; i < charts; ++i) {
    const int m = 1 + static_cast<int>(rng.UniformInt(6));
    table::UnderlyingData d;
    for (int li = 0; li < m; ++li) {
      table::DataSeries s;
      s.y = benchgen::GenerateSeries(benchgen::RandomFamily(&rng), 150,
                                     &rng);
      d.push_back(std::move(s));
    }
    const auto chart = chart::RenderLineChart(d);
    Measure(oracle, chart, d, &fo);
    Measure(classical, chart, d, &fc);
    Measure(learned, chart, d, &fl);
  }

  eval::ReportTable table({"Extractor", "line count acc", "value MAE (rel)",
                           "y-range err (rel)", "failures"});
  auto row = [&](const char* name, const Fidelity& f) {
    table.AddRow(
        {name,
         eval::Fmt3(static_cast<double>(f.correct_line_count) / f.charts),
         f.value_mae_count > 0
             ? eval::Fmt3(f.value_mae_sum / f.value_mae_count)
             : "-",
         eval::Fmt3(f.range_err_sum /
                    std::max(1, f.charts - f.extraction_failures)),
         std::to_string(f.extraction_failures)});
  };
  row("mask oracle", fo);
  row("classical", fc);
  row("learned (LCSeg)", fl);
  table.Print();

  std::printf(
      "\nExpected shape: oracle ~perfect; classical close behind (exact "
      "tick OCR, small tracing error on dense charts); learned slightly "
      "behind classical but well above failure.\n");
  return 0;
}

}  // namespace
}  // namespace fcm

int main() { return fcm::Run(); }
