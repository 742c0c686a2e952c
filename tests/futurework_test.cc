// Tests for the Sec. IX future-work extensions: re-scaling ops, nested
// aggregation pipelines, the extension query generators, and multi-dataset
// line-to-table assignment.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "benchgen/futurework.h"
#include "core/multi_dataset.h"
#include "relevance/relevance.h"
#include "table/aggregate.h"
#include "table/rescale.h"
#include "vision/classical_extractor.h"

namespace fcm {
namespace {

using table::AggregateOp;
using table::AggregateStep;
using table::Column;
using table::RescaleOp;
using table::Table;

// ----------------------------------------------------------- Re-scaling

TEST(RescaleTest, ZScoreHasZeroMeanUnitVariance) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 10.0};
  const auto z = table::Rescale(v, RescaleOp::kZScore);
  double mean = 0.0;
  for (double x : z) mean += x;
  mean /= static_cast<double>(z.size());
  EXPECT_NEAR(mean, 0.0, 1e-12);
  double var = 0.0;
  for (double x : z) var += (x - mean) * (x - mean);
  var /= static_cast<double>(z.size());
  EXPECT_NEAR(var, 1.0, 1e-9);
}

TEST(RescaleTest, ZScoreConstantColumnIsZero) {
  const auto z = table::Rescale({5.0, 5.0, 5.0}, RescaleOp::kZScore);
  for (double x : z) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(RescaleTest, MinMaxMapsToUnitInterval) {
  const auto m = table::Rescale({2.0, 6.0, 4.0}, RescaleOp::kMinMax);
  EXPECT_DOUBLE_EQ(m[0], 0.0);
  EXPECT_DOUBLE_EQ(m[1], 1.0);
  EXPECT_DOUBLE_EQ(m[2], 0.5);
  const auto c = table::Rescale({3.0, 3.0}, RescaleOp::kMinMax);
  EXPECT_DOUBLE_EQ(c[0], 0.5);
}

TEST(RescaleTest, AffineAppliesFactorAndOffset) {
  table::RescaleParams params;
  params.factor = 2.0;
  params.offset = -1.0;
  const auto a = table::Rescale({0.0, 1.0, 2.0}, RescaleOp::kAffine, params);
  EXPECT_DOUBLE_EQ(a[0], -1.0);
  EXPECT_DOUBLE_EQ(a[1], 1.0);
  EXPECT_DOUBLE_EQ(a[2], 3.0);
}

TEST(RescaleTest, NoneIsIdentityAndEmptyIsSafe) {
  const std::vector<double> v = {1.0, -2.0};
  EXPECT_EQ(table::Rescale(v, RescaleOp::kNone), v);
  EXPECT_TRUE(table::Rescale({}, RescaleOp::kZScore).empty());
}

TEST(RescaleTest, RescaleTableSkipsXColumn) {
  Table t("t", {Column("x", {1.0, 2.0}), Column("y", {10.0, 30.0})});
  const Table out = table::RescaleTable(t, RescaleOp::kMinMax, {},
                                        /*x_column=*/0);
  EXPECT_DOUBLE_EQ(out.column(0).values[0], 1.0);  // Untouched.
  EXPECT_DOUBLE_EQ(out.column(1).values[0], 0.0);
  EXPECT_DOUBLE_EQ(out.column(1).values[1], 1.0);
}

TEST(RescaleTest, ZNormalizedDtwIsScaleInvariant) {
  // The scale-invariant relevance the rescale ground truth relies on:
  // z-normalized DTW between v and a*v+b is ~0.
  std::vector<double> v;
  for (int i = 0; i < 50; ++i) v.push_back(std::sin(0.3 * i));
  std::vector<double> scaled;
  for (double x : v) scaled.push_back(7.0 * x + 100.0);
  rel::DtwOptions options;
  options.z_normalize = true;
  EXPECT_NEAR(rel::DtwDistance(v, scaled, options), 0.0, 1e-6);
}

// ---------------------------------------------------- Nested aggregation

TEST(NestedAggregateTest, EmptyPipelineIsIdentity) {
  const std::vector<double> v = {1.0, 2.0, 3.0};
  EXPECT_EQ(table::NestedAggregate(v, {}), v);
}

TEST(NestedAggregateTest, TwoStepMatchesManualComposition) {
  std::vector<double> v;
  for (int i = 0; i < 24; ++i) v.push_back(static_cast<double>(i % 7));
  const std::vector<AggregateStep> steps = {{AggregateOp::kAvg, 3},
                                            {AggregateOp::kMax, 2}};
  const auto nested = table::NestedAggregate(v, steps);
  const auto manual =
      table::Aggregate(table::Aggregate(v, AggregateOp::kAvg, 3),
                       AggregateOp::kMax, 2);
  EXPECT_EQ(nested, manual);
}

TEST(NestedAggregateTest, LengthShrinksMultiplicatively) {
  const std::vector<double> v(60, 1.0);
  const auto out = table::NestedAggregate(
      v, {{AggregateOp::kSum, 5}, {AggregateOp::kMin, 3}});
  EXPECT_EQ(out.size(), 4u);  // 60 / 5 = 12, 12 / 3 = 4.
}

TEST(NestedAggregateTest, SumThenAvgPreservesTotalMean) {
  // avg of per-window sums with equal windows == total sum / num windows.
  std::vector<double> v;
  for (int i = 0; i < 16; ++i) v.push_back(static_cast<double>(i));
  const auto out = table::NestedAggregate(
      v, {{AggregateOp::kSum, 4}, {AggregateOp::kAvg, 4}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0], (15.0 * 16.0 / 2.0) / 4.0);
}

TEST(NestedAggregateTest, PipelineNameFormat) {
  EXPECT_EQ(table::AggregatePipelineName(
                {{AggregateOp::kAvg, 4}, {AggregateOp::kMax, 3}}),
            "avg(4) -> max(3)");
  EXPECT_EQ(table::AggregatePipelineName({}), "identity");
}

// ------------------------------------------------------ Query generators

benchgen::FutureworkConfig SmallConfig() {
  benchgen::FutureworkConfig config;
  config.num_queries = 3;
  config.duplicates_per_query = 2;
  config.ground_truth_k = 3;
  config.min_rows = 64;
  config.max_rows = 96;
  return config;
}

TEST(FutureworkGeneratorTest, MultiDatasetQueriesHaveTwoSources) {
  benchgen::Benchmark bench;
  vision::ClassicalExtractor extractor;
  const auto queries = benchgen::MakeMultiDatasetQueries(
      &bench, extractor, SmallConfig(), /*num_sources=*/2);
  ASSERT_FALSE(queries.empty());
  for (const auto& q : queries) {
    EXPECT_EQ(q.source_tables.size(), 2u);
    EXPECT_EQ(q.underlying.size(), 2u);
    EXPECT_GE(q.extracted.num_lines(), 1);
    // Sources landed in the lake.
    for (const auto tid : q.source_tables) {
      EXPECT_LT(static_cast<size_t>(tid), bench.lake.size());
    }
  }
}

TEST(FutureworkGeneratorTest, RescaledQueriesCarryProvenanceAndGroundTruth) {
  benchgen::Benchmark bench;
  vision::ClassicalExtractor extractor;
  const auto queries = benchgen::MakeRescaledQueries(
      &bench, extractor, SmallConfig(), RescaleOp::kZScore);
  ASSERT_FALSE(queries.empty());
  for (const auto& q : queries) {
    EXPECT_EQ(q.rescale, RescaleOp::kZScore);
    EXPECT_EQ(q.relevant.size(), 3u);
    // The scale-invariant ground truth must rank the source table (or one
    // of its near-duplicates) in the top-k.
    EXPECT_TRUE(std::find(q.relevant.begin(), q.relevant.end(),
                          q.source_tables[0]) != q.relevant.end())
        << "z-normalized relevance should recover the rescaled source";
  }
}

TEST(FutureworkGeneratorTest, NestedAggQueriesHaveTwoStepPipelines) {
  benchgen::Benchmark bench;
  vision::ClassicalExtractor extractor;
  const auto queries =
      benchgen::MakeNestedAggQueries(&bench, extractor, SmallConfig());
  ASSERT_FALSE(queries.empty());
  for (const auto& q : queries) {
    EXPECT_EQ(q.pipeline.size(), 2u);
    for (const auto& step : q.pipeline) {
      EXPECT_NE(step.op, AggregateOp::kNone);
      EXPECT_GE(step.window_size, 2u);
    }
    EXPECT_FALSE(q.relevant.empty());
  }
}

TEST(FutureworkGeneratorTest, MultiAggQueriesPlotOneLinePerOperator) {
  benchgen::Benchmark bench;
  vision::ClassicalExtractor extractor;
  const auto queries =
      benchgen::MakeMultiAggQueries(&bench, extractor, SmallConfig());
  ASSERT_FALSE(queries.empty());
  for (const auto& q : queries) {
    EXPECT_EQ(q.per_line_ops.size(), table::RealAggregateOps().size());
    EXPECT_EQ(q.underlying.size(), q.per_line_ops.size());
  }
}

TEST(FutureworkGeneratorTest, GeneratorsAreDeterministicPerSeed) {
  benchgen::Benchmark b1, b2;
  vision::ClassicalExtractor extractor;
  const auto q1 =
      benchgen::MakeNestedAggQueries(&b1, extractor, SmallConfig());
  const auto q2 =
      benchgen::MakeNestedAggQueries(&b2, extractor, SmallConfig());
  ASSERT_EQ(q1.size(), q2.size());
  for (size_t i = 0; i < q1.size(); ++i) {
    ASSERT_EQ(q1[i].underlying.size(), q2[i].underlying.size());
    EXPECT_EQ(q1[i].underlying[0].y, q2[i].underlying[0].y);
  }
}

// ------------------------------------------------- Multi-dataset search

TEST(MultiDatasetTest, SingleLineChartInheritsRangeAndLine) {
  vision::ExtractedChart chart;
  chart.y_lo = -2.0;
  chart.y_hi = 5.0;
  chart.lines.resize(3);
  chart.lines[1].width = 7;
  const auto sub = core::SingleLineChart(chart, 1);
  EXPECT_EQ(sub.num_lines(), 1);
  EXPECT_EQ(sub.lines[0].width, 7);
  EXPECT_DOUBLE_EQ(sub.y_lo, -2.0);
  EXPECT_DOUBLE_EQ(sub.y_hi, 5.0);
}

TEST(MultiDatasetTest, DiscoverReturnsPerLineRankings) {
  benchgen::Benchmark bench;
  vision::ClassicalExtractor extractor;
  benchgen::FutureworkConfig config = SmallConfig();
  config.num_queries = 2;
  const auto queries = benchgen::MakeMultiDatasetQueries(
      &bench, extractor, config, /*num_sources=*/2);
  ASSERT_FALSE(queries.empty());

  core::FcmModel model{core::FcmConfig()};

  core::MultiDatasetOptions options;
  options.per_line_k = 3;
  const auto result = core::DiscoverMultiDataset(
      model, queries[0].extracted, bench.lake, options);
  EXPECT_EQ(result.per_line.size(),
            static_cast<size_t>(queries[0].extracted.num_lines()));
  for (const auto& line : result.per_line) {
    EXPECT_LE(line.ranked.size(), 3u);
    EXPECT_FALSE(line.ranked.empty());
    // Ranked descending.
    for (size_t i = 1; i < line.ranked.size(); ++i) {
      EXPECT_GE(line.ranked[i - 1].first, line.ranked[i].first);
    }
  }
  EXPECT_FALSE(result.tables.empty());
  // Combined list has no duplicates.
  auto tables = result.tables;
  std::sort(tables.begin(), tables.end());
  EXPECT_TRUE(std::adjacent_find(tables.begin(), tables.end()) ==
              tables.end());
}

}  // namespace
}  // namespace fcm
