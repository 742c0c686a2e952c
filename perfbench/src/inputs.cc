// Seeded input generation: lake tables from the benchgen series families
// and query charts rendered from lake columns. Everything here is a pure
// function of the RNG stream, so one seed always yields the same inputs.

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "benchgen/series_generator.h"
#include "bench.h"

namespace perfbench {

using fcm::table::Table;

std::vector<Table> GenerateTables(size_t n, fcm::common::Rng* rng) {
  std::vector<Table> tables;
  tables.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    const size_t columns = 3 + static_cast<size_t>(rng->UniformInt(4));
    const size_t rows = 96 + static_cast<size_t>(rng->UniformInt(225));
    Table table;
    for (size_t c = 0; c < columns; ++c) {
      const auto family = fcm::benchgen::RandomFamily(rng);
      table.AddColumn(fcm::table::Column(
          "c" + std::to_string(c),
          fcm::benchgen::GenerateSeries(family, rows, rng)));
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

std::vector<ChartCase> GenerateCharts(const std::vector<Table>& sources,
                                      size_t n, fcm::common::Rng* rng,
                                      size_t* rejected) {
  const fcm::vision::ClassicalExtractor extractor;
  std::vector<ChartCase> charts;
  charts.reserve(n);
  *rejected = 0;
  while (charts.size() < n) {
    // Line counts cycle 1..4 so every seed has the same mix of chart
    // sizes; only the source table and columns are random.
    const size_t lines = 1 + charts.size() % 4;
    const Table& table = sources[rng->UniformInt(sources.size())];
    if (table.num_columns() < lines) continue;
    fcm::table::UnderlyingData data;
    for (size_t c : rng->SampleWithoutReplacement(table.num_columns(), lines)) {
      fcm::table::DataSeries series;
      series.y = table.column(c).values;
      data.push_back(std::move(series));
    }
    fcm::chart::RenderedChart rendered = fcm::chart::RenderLineChart(data);
    auto extracted = extractor.Extract(rendered);
    if (!extracted.ok() || extracted.value().lines.empty()) {
      ++*rejected;
      continue;
    }
    charts.push_back({std::move(rendered), std::move(extracted).value()});
  }
  return charts;
}

fcm::table::DataLake MakeLake(const std::vector<Table>& tables) {
  fcm::table::DataLake lake;
  for (const Table& t : tables) lake.Add(t);
  return lake;
}

std::vector<size_t> ChartOrder(size_t n, fcm::common::Rng* rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  rng->Shuffle(&order);
  return order;
}

}  // namespace perfbench
