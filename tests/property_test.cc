// Property-based tests: parameterized sweeps asserting invariants of the
// substrates (DTW, Hungarian matching, interval tree, LSH, aggregation,
// resampling, noise, serialization) against brute-force references and
// mathematical identities.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "chart/renderer.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/interval_tree.h"
#include "index/lsh.h"
#include "relevance/dtw.h"
#include "relevance/hungarian.h"
#include "table/aggregate.h"
#include "table/noise.h"
#include "table/rescale.h"
#include "vision/classical_extractor.h"

namespace fcm {
namespace {

std::vector<double> RandomSeries(common::Rng* rng, size_t n,
                                 double scale = 1.0) {
  std::vector<double> v(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += rng->Uniform(-scale, scale);
    v[i] = acc;
  }
  return v;
}

// ------------------------------------------------------------------ DTW

class DtwPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DtwPropertyTest, IdentityIsZero) {
  common::Rng rng(static_cast<uint64_t>(GetParam()));
  const auto a = RandomSeries(&rng, 16 + static_cast<size_t>(GetParam()));
  EXPECT_NEAR(rel::DtwDistance(a, a), 0.0, 1e-12);
}

TEST_P(DtwPropertyTest, Symmetry) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 1);
  const auto a = RandomSeries(&rng, 20);
  const auto b = RandomSeries(&rng, 33);
  EXPECT_DOUBLE_EQ(rel::DtwDistance(a, b), rel::DtwDistance(b, a));
}

TEST_P(DtwPropertyTest, NonNegativeAndFiniteOnNonEmpty) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 3);
  const auto a = RandomSeries(&rng, 12);
  const auto b = RandomSeries(&rng, 25);
  const double d = rel::DtwDistance(a, b);
  EXPECT_GE(d, 0.0);
  EXPECT_TRUE(std::isfinite(d));
}

TEST_P(DtwPropertyTest, WideBandMatchesFullDtw) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 11);
  const auto a = RandomSeries(&rng, 24);
  const auto b = RandomSeries(&rng, 24);
  rel::DtwOptions wide;
  wide.band_fraction = 1.0;  // Band covers the whole matrix.
  EXPECT_NEAR(rel::DtwDistance(a, b, wide), rel::DtwDistance(a, b), 1e-9);
}

TEST_P(DtwPropertyTest, BandIsLowerBoundedByFullDtw) {
  // Restricting warping paths can only increase the optimal cost.
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 13 + 5);
  const auto a = RandomSeries(&rng, 40);
  const auto b = RandomSeries(&rng, 40);
  rel::DtwOptions banded;
  banded.band_fraction = 0.1;
  EXPECT_GE(rel::DtwDistance(a, b, banded) + 1e-9, rel::DtwDistance(a, b));
}

TEST_P(DtwPropertyTest, ConstantShiftCostsAtMostLengthTimesShift) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 3 + 7);
  const auto a = RandomSeries(&rng, 30);
  std::vector<double> b = a;
  for (double& v : b) v += 0.25;
  // The diagonal path costs exactly 0.25 * n; DTW can only do better.
  EXPECT_LE(rel::DtwDistance(a, b), 0.25 * 30 + 1e-9);
  // Low-level relevance stays in (0, 1].
  const double r = rel::LowLevelRelevance(a, b);
  EXPECT_GT(r, 0.0);
  EXPECT_LE(r, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DtwPropertyTest, ::testing::Range(0, 8));

// ------------------------------------------------------------- Hungarian

class HungarianPropertyTest : public ::testing::TestWithParam<int> {};

double BruteForceBestMatching(std::vector<std::vector<double>> w) {
  size_t rows = w.size();
  size_t cols = w.empty() ? 0 : w[0].size();
  if (rows > cols) {
    // Transpose so enumerating column permutations covers every injective
    // assignment of the smaller side.
    std::vector<std::vector<double>> tr(cols, std::vector<double>(rows));
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols; ++c) tr[c][r] = w[r][c];
    }
    w = std::move(tr);
    std::swap(rows, cols);
  }
  std::vector<size_t> perm(cols);
  std::iota(perm.begin(), perm.end(), 0);
  double best = 0.0;
  do {
    double total = 0.0;
    for (size_t r = 0; r < rows; ++r) {
      total += std::max(0.0, w[r][perm[r]]);
    }
    best = std::max(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST_P(HungarianPropertyTest, MatchesBruteForceOnRandomMatrices) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 101 + 13);
  const size_t rows = 1 + rng.UniformInt(4);
  const size_t cols = 1 + rng.UniformInt(5);
  std::vector<std::vector<double>> w(rows, std::vector<double>(cols));
  for (auto& row : w) {
    for (double& v : row) v = rng.Uniform();
  }
  const auto result = rel::MaxWeightBipartiteMatching(w);
  EXPECT_NEAR(result.total_weight, BruteForceBestMatching(w), 1e-9);
}

TEST_P(HungarianPropertyTest, AssignmentIsOneToOne) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 41 + 29);
  const size_t rows = 2 + rng.UniformInt(4);
  const size_t cols = 2 + rng.UniformInt(4);
  std::vector<std::vector<double>> w(rows, std::vector<double>(cols));
  for (auto& row : w) {
    for (double& v : row) v = rng.Uniform();
  }
  const auto result = rel::MaxWeightBipartiteMatching(w);
  std::vector<int> used;
  for (const int c : result.assignment) {
    if (c < 0) continue;
    EXPECT_TRUE(std::find(used.begin(), used.end(), c) == used.end())
        << "column " << c << " assigned twice";
    used.push_back(c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HungarianPropertyTest,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------- IntervalTree

class IntervalTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IntervalTreePropertyTest, QueryMatchesBruteForce) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 59 + 17);
  const size_t n = 1 + rng.UniformInt(200);
  std::vector<index::Interval> intervals(n);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(-100.0, 100.0);
    const double b = rng.Uniform(-100.0, 100.0);
    intervals[i] = {std::min(a, b), std::max(a, b),
                    static_cast<int64_t>(i)};
  }
  const index::IntervalTree tree(intervals);

  for (int q = 0; q < 20; ++q) {
    const double a = rng.Uniform(-120.0, 120.0);
    const double b = rng.Uniform(-120.0, 120.0);
    const double qlo = std::min(a, b), qhi = std::max(a, b);
    auto got = tree.QueryOverlap(qlo, qhi);
    std::vector<int64_t> expected;
    for (const auto& iv : intervals) {
      if (iv.Overlaps(qlo, qhi)) expected.push_back(iv.payload);
    }
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected) << "query [" << qlo << ", " << qhi << "]";
  }
}

TEST_P(IntervalTreePropertyTest, PointQueryEqualsDegenerateOverlap) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 71 + 23);
  const size_t n = 1 + rng.UniformInt(80);
  std::vector<index::Interval> intervals(n);
  for (size_t i = 0; i < n; ++i) {
    const double lo = rng.Uniform(-10.0, 10.0);
    intervals[i] = {lo, lo + rng.Uniform(0.0, 5.0),
                    static_cast<int64_t>(i)};
  }
  const index::IntervalTree tree(intervals);
  const double q = rng.Uniform(-12.0, 12.0);
  auto point = tree.QueryPoint(q);
  auto overlap = tree.QueryOverlap(q, q);
  std::sort(point.begin(), point.end());
  std::sort(overlap.begin(), overlap.end());
  EXPECT_EQ(point, overlap);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalTreePropertyTest,
                         ::testing::Range(0, 8));

// ------------------------------------------------------------------ LSH

TEST(LshPropertyTest, CollisionRateIncreasesWithCosineSimilarity) {
  // Random-hyperplane LSH: P(bit match) = 1 - angle/pi, so near-duplicate
  // vectors must collide far more often than random ones.
  common::Rng rng(12345);
  const int dim = 16;
  index::LshConfig config;
  config.num_bits = 10;
  config.num_tables = 4;

  std::vector<std::vector<float>> base(40);
  std::vector<index::LshItem> items;
  for (size_t i = 0; i < base.size(); ++i) {
    base[i].resize(dim);
    for (auto& v : base[i]) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    items.push_back({base[i].data(), static_cast<int64_t>(i)});
  }
  common::ThreadPool pool(1);
  const index::RandomHyperplaneLsh lsh(dim, config, items, &pool);

  int near_hits = 0, random_hits = 0;
  for (size_t i = 0; i < base.size(); ++i) {
    // Near-duplicate probe: small perturbation.
    auto probe = base[i];
    for (auto& v : probe) v += static_cast<float>(rng.Uniform(-0.05, 0.05));
    const auto hits = lsh.Query(probe);
    if (std::find(hits.begin(), hits.end(), static_cast<int64_t>(i)) !=
        hits.end()) {
      ++near_hits;
    }
    // Random probe.
    std::vector<float> rand_probe(dim);
    for (auto& v : rand_probe) {
      v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    const auto rand_hits = lsh.Query(rand_probe);
    if (std::find(rand_hits.begin(), rand_hits.end(),
                  static_cast<int64_t>(i)) != rand_hits.end()) {
      ++random_hits;
    }
  }
  EXPECT_GT(near_hits, 30) << "near-duplicates should nearly always collide";
  EXPECT_LT(random_hits, near_hits);
}

TEST(LshPropertyTest, CodeIsDeterministicPerTable) {
  common::Rng rng(99);
  index::LshConfig config;
  common::ThreadPool pool(1);
  const index::RandomHyperplaneLsh lsh(8, config, {}, &pool);
  std::vector<float> v(8);
  for (auto& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (int t = 0; t < config.num_tables; ++t) {
    EXPECT_EQ(lsh.Code(v, t), lsh.Code(v, t));
  }
  // Scaling a vector does not change its sign pattern.
  std::vector<float> scaled = v;
  for (auto& x : scaled) x *= 3.5f;
  for (int t = 0; t < config.num_tables; ++t) {
    EXPECT_EQ(lsh.Code(v, t), lsh.Code(scaled, t));
  }
}

// ------------------------------------------------------------ Aggregation

class AggregatePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AggregatePropertyTest, MinLeqAvgLeqMaxPerWindow) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 211 + 7);
  const auto v = RandomSeries(&rng, 50 + rng.UniformInt(50));
  const size_t w = 2 + rng.UniformInt(9);
  const auto mins = table::Aggregate(v, table::AggregateOp::kMin, w);
  const auto avgs = table::Aggregate(v, table::AggregateOp::kAvg, w);
  const auto maxs = table::Aggregate(v, table::AggregateOp::kMax, w);
  ASSERT_EQ(mins.size(), avgs.size());
  ASSERT_EQ(avgs.size(), maxs.size());
  for (size_t i = 0; i < avgs.size(); ++i) {
    EXPECT_LE(mins[i], avgs[i] + 1e-12);
    EXPECT_LE(avgs[i], maxs[i] + 1e-12);
  }
}

TEST_P(AggregatePropertyTest, SumEqualsAvgTimesWindowOnFullWindows) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 43);
  const size_t w = 2 + rng.UniformInt(6);
  const auto v = RandomSeries(&rng, w * (3 + rng.UniformInt(6)));
  const auto sums = table::Aggregate(v, table::AggregateOp::kSum, w);
  const auto avgs = table::Aggregate(v, table::AggregateOp::kAvg, w);
  for (size_t i = 0; i < sums.size(); ++i) {
    EXPECT_NEAR(sums[i], avgs[i] * static_cast<double>(w), 1e-9);
  }
}

TEST_P(AggregatePropertyTest, OutputLengthIsCeilDiv) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 3 + 1);
  const size_t n = 1 + rng.UniformInt(100);
  const size_t w = 1 + rng.UniformInt(20);
  const auto out =
      table::Aggregate(RandomSeries(&rng, n), table::AggregateOp::kAvg, w);
  EXPECT_EQ(out.size(), (n + w - 1) / w);
}

TEST_P(AggregatePropertyTest, AggregationCommutesWithAffineForMinMax) {
  // min/max are order statistics: min(a*v + b) = a*min(v) + b for a > 0.
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 2);
  const auto v = RandomSeries(&rng, 36);
  table::RescaleParams params;
  params.factor = 2.5;
  params.offset = -1.0;
  const auto scaled = table::Rescale(v, table::RescaleOp::kAffine, params);
  for (const auto op : {table::AggregateOp::kMin, table::AggregateOp::kMax}) {
    const auto agg_scaled = table::Aggregate(scaled, op, 4);
    const auto scaled_agg = table::Rescale(table::Aggregate(v, op, 4),
                                           table::RescaleOp::kAffine, params);
    ASSERT_EQ(agg_scaled.size(), scaled_agg.size());
    for (size_t i = 0; i < agg_scaled.size(); ++i) {
      EXPECT_NEAR(agg_scaled[i], scaled_agg[i], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregatePropertyTest,
                         ::testing::Range(0, 8));

// ------------------------------------------------------- Noise/resample

class NoisePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NoisePropertyTest, MultiplicativeNoiseStaysInBounds) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  table::Table t("t", {table::Column("c", RandomSeries(&rng, 64, 5.0))});
  const double amp = 0.1;
  const table::Table noisy =
      table::InjectMultiplicativeNoise(t, amp, /*x_column=*/-1, &rng);
  for (size_t i = 0; i < 64; ++i) {
    const double orig = t.column(0).values[i];
    const double got = noisy.column(0).values[i];
    EXPECT_LE(std::fabs(got - orig), std::fabs(orig) * amp + 1e-12);
  }
}

TEST_P(NoisePropertyTest, ResampleLinearPreservesEndpointsAndRange) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) + 2000);
  const auto v = RandomSeries(&rng, 37 + rng.UniformInt(100));
  const size_t m = 2 + rng.UniformInt(80);
  const auto r = common::ResampleLinear(v, m);
  ASSERT_EQ(r.size(), m);
  EXPECT_NEAR(r.front(), v.front(), 1e-12);
  EXPECT_NEAR(r.back(), v.back(), 1e-12);
  // Linear interpolation cannot exceed the original extremes.
  const double lo = *std::min_element(v.begin(), v.end());
  const double hi = *std::max_element(v.begin(), v.end());
  for (double x : r) {
    EXPECT_GE(x, lo - 1e-12);
    EXPECT_LE(x, hi + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoisePropertyTest, ::testing::Range(0, 8));

// ---------------------------------------------------- Chart rendering

class ChartRenderPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ChartRenderPropertyTest, ValueRowMappingIsInverse) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) + 3000);
  table::DataSeries s;
  s.y = RandomSeries(&rng, 40, 3.0);
  const auto c = chart::RenderLineChart({s});
  for (int i = 0; i < 10; ++i) {
    const double v = rng.Uniform(c.y_ticks_layout.axis_lo,
                                 c.y_ticks_layout.axis_hi);
    EXPECT_NEAR(c.RowToValue(c.ValueToRow(v)), v, 1e-9);
  }
}

TEST_P(ChartRenderPropertyTest, TicksAscendAndCoverDataRange) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) + 4000);
  table::DataSeries s;
  s.y = RandomSeries(&rng, 30, 5.0);
  const auto c = chart::RenderLineChart({s});
  const auto& layout = c.y_ticks_layout;
  ASSERT_GE(layout.ticks.size(), 2u);
  for (size_t i = 1; i < layout.ticks.size(); ++i) {
    EXPECT_NEAR(layout.ticks[i] - layout.ticks[i - 1], layout.step, 1e-9);
  }
  const double lo = *std::min_element(s.y.begin(), s.y.end());
  const double hi = *std::max_element(s.y.begin(), s.y.end());
  EXPECT_LE(layout.axis_lo, lo + 1e-9);
  EXPECT_GE(layout.axis_hi, hi - 1e-9);
}

TEST_P(ChartRenderPropertyTest, EveryLinePaintsInsidePlotArea) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) + 5000);
  const int m = 1 + static_cast<int>(rng.UniformInt(4));
  table::UnderlyingData d;
  for (int i = 0; i < m; ++i) {
    table::DataSeries s;
    s.y = RandomSeries(&rng, 25, 2.0);
    d.push_back(std::move(s));
  }
  const auto c = chart::RenderLineChart(d);
  for (int li = 0; li < m; ++li) {
    const auto mask = c.LineMask(li);
    int inside = 0, outside = 0;
    for (int y = 0; y < c.canvas.height(); ++y) {
      for (int x = 0; x < c.canvas.width(); ++x) {
        if (!mask[static_cast<size_t>(y) * c.canvas.width() + x]) continue;
        const bool in = x >= c.plot.left && x <= c.plot.right &&
                        y >= c.plot.top && y <= c.plot.bottom;
        (in ? inside : outside) += 1;
      }
    }
    EXPECT_GT(inside, 0) << "line " << li;
    // Anti-aliasing may deposit a 1px fringe at the plot border; nothing
    // should land further out.
    EXPECT_LE(outside, 2 * (c.plot.Width() + c.plot.Height())) << li;
  }
}

TEST_P(ChartRenderPropertyTest, ClassicalExtractionRoundTripsValues) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) + 6000);
  table::DataSeries s;
  // Smooth series so per-column recovery is well defined.
  double acc = 0.0;
  for (int i = 0; i < 60; ++i) {
    acc += rng.Uniform(-0.2, 0.2);
    s.y.push_back(std::sin(0.15 * i) + acc);
  }
  const auto c = chart::RenderLineChart({s});
  vision::ClassicalExtractor extractor;
  const auto result = extractor.Extract(c);
  ASSERT_TRUE(result.ok()) << result.status().message();
  ASSERT_EQ(result.value().num_lines(), 1);
  const auto& values = result.value().lines[0].values;
  // Compare recovered per-pixel-column values against the rendered truth
  // at matching horizontal positions.
  const double range =
      c.y_ticks_layout.axis_hi - c.y_ticks_layout.axis_lo;
  double max_err = 0.0;
  for (size_t x = 0; x < values.size(); ++x) {
    const double t =
        static_cast<double>(x) / static_cast<double>(values.size() - 1);
    const double idx = t * static_cast<double>(s.y.size() - 1);
    const size_t i0 = static_cast<size_t>(idx);
    const size_t i1 = std::min(i0 + 1, s.y.size() - 1);
    const double frac = idx - static_cast<double>(i0);
    const double truth = s.y[i0] * (1.0 - frac) + s.y[i1] * frac;
    max_err = std::max(max_err, std::fabs(values[x] - truth) / range);
  }
  EXPECT_LT(max_err, 0.08) << "relative recovery error too large";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChartRenderPropertyTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace fcm
