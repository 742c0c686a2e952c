// Golden-ranking regression gate: serves a fixed synthetic lake with a
// fixed query set and diffs the live rankings against checked-in
// fixtures under tests/golden/, so *silent* ranking drift — a kernel
// "optimization" that reorders a reduction, an encoder tweak, a quantizer
// rounding change — fails tier-1 loudly instead of shipping. Ranked ids
// must match exactly; scores within 1e-9 relative tolerance (the fixture
// stores 17 significant digits, enough to round-trip a double). A second
// test pins a metamorphic relation over the same fixture: permuting the
// lake permutes the ranking, with bit-identical scores.
//
// The fixtures are scalar-kernel goldens: ctest runs this binary with
// FCM_SIMD=scalar and the fixture additionally forces the scalar kernel
// table in SetUp, because FMA contraction makes SIMD scores
// target-dependent (bit-identical per target, not across targets).
//
// To regenerate after an *intentional* ranking change:
//   FCM_GOLDEN_UPDATE=1 FCM_GOLDEN_DIR=tests/golden ./golden_test
// and commit the diff with the rationale.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "chart/renderer.h"
#include "common/simd.h"
#include "core/fcm_config.h"
#include "core/fcm_model.h"
#include "index/search_engine.h"
#include "table/data_lake.h"
#include "table/data_series.h"
#include "vision/mask_oracle_extractor.h"

namespace fcm {
namespace {

namespace idx = fcm::index;

const idx::IndexStrategy kAllStrategies[] = {
    idx::IndexStrategy::kNoIndex, idx::IndexStrategy::kIntervalTree,
    idx::IndexStrategy::kLsh, idx::IndexStrategy::kHybrid};

constexpr int kTables = 10;
constexpr int kQueries = 3;
constexpr int kTopK = 5;
constexpr double kScoreTolerance = 1e-9;

/// One golden line: a (engine, strategy, query, rank) cell of the
/// ranking matrix.
/// Space-free strategy tokens (IndexStrategyName has spaces, and the
/// fixture is whitespace-delimited).
const char* StrategyToken(idx::IndexStrategy s) {
  switch (s) {
    case idx::IndexStrategy::kNoIndex: return "noindex";
    case idx::IndexStrategy::kIntervalTree: return "interval";
    case idx::IndexStrategy::kLsh: return "lsh";
    case idx::IndexStrategy::kHybrid: return "hybrid";
  }
  return "unknown";
}

struct GoldenRow {
  std::string engine;    // "f32" | "int8"
  std::string strategy;  // StrategyToken
  int query = 0;
  int rank = 0;
  int64_t table_id = 0;
  double score = 0.0;
};

class GoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Scalar kernels only: the goldens are scalar goldens (see header).
    ASSERT_TRUE(simd::SetTarget(simd::Target::kScalar));

    const char* dir = std::getenv("FCM_GOLDEN_DIR");
    ASSERT_NE(dir, nullptr)
        << "FCM_GOLDEN_DIR is unset; ctest exports it (tests/golden). "
           "For a manual run: FCM_GOLDEN_DIR=tests/golden ./golden_test";
    golden_path_ = std::string(dir) + "/rankings.golden";
    update_ = std::getenv("FCM_GOLDEN_UPDATE") != nullptr;

    for (int i = 0; i < kTables; ++i) {
      table::Table t;
      for (int c = 0; c < 3; ++c) {
        std::vector<double> v(60);
        for (size_t j = 0; j < v.size(); ++j) {
          v[j] = std::sin(static_cast<double>(j) * (0.05 + 0.02 * i) + c) *
                     (3.0 + i) +
                 2.0 * c;
        }
        t.AddColumn(table::Column("c" + std::to_string(c), std::move(v)));
      }
      lake_.Add(std::move(t));
    }

    core::FcmConfig config;
    config.embed_dim = 16;
    config.num_layers = 1;
    config.strip_height = 16;
    config.strip_width = 64;
    config.line_segment_width = 16;
    config.column_length = 64;
    config.data_segment_size = 16;
    model_ = std::make_unique<core::FcmModel>(config);

    vision::MaskOracleExtractor oracle;
    for (int q = 0; q < kQueries; ++q) {
      table::DataSeries d;
      d.y = lake_.tables()[q * 2].column(q % 3).values;
      queries_.push_back(oracle.Extract(chart::RenderLineChart({d})).value());
    }
  }

  /// The full live ranking matrix: both precisions, every strategy, every
  /// query, ranks 0..k-1.
  std::vector<GoldenRow> LiveRows() {
    std::vector<GoldenRow> rows;
    const idx::EmbeddingPrecision precisions[] = {
        idx::EmbeddingPrecision::kFloat32, idx::EmbeddingPrecision::kInt8};
    for (const auto precision : precisions) {
      idx::SearchEngineOptions options;
      options.num_threads = 2;
      options.precision = precision;
      idx::SearchEngine engine(model_.get(), &lake_);
      engine.BuildWithOptions(options);
      const char* engine_name =
          precision == idx::EmbeddingPrecision::kInt8 ? "int8" : "f32";
      for (const auto strategy : kAllStrategies) {
        for (int q = 0; q < kQueries; ++q) {
          const auto hits = engine.Search(queries_[q], kTopK, strategy);
          for (size_t r = 0; r < hits.size(); ++r) {
            rows.push_back({engine_name, StrategyToken(strategy), q,
                            static_cast<int>(r),
                            static_cast<int64_t>(hits[r].table_id),
                            hits[r].score});
          }
        }
      }
    }
    return rows;
  }

  std::vector<GoldenRow> ReadGolden() {
    std::vector<GoldenRow> rows;
    std::ifstream in(golden_path_);
    EXPECT_TRUE(in.good())
        << "missing golden fixture " << golden_path_
        << "; regenerate with FCM_GOLDEN_UPDATE=1 and commit it";
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      GoldenRow row;
      std::istringstream fields(line);
      EXPECT_TRUE(static_cast<bool>(fields >> row.engine >> row.strategy >>
                                    row.query >> row.rank >> row.table_id >>
                                    row.score))
          << "malformed golden line: " << line;
      rows.push_back(row);
    }
    return rows;
  }

  void WriteGolden(const std::vector<GoldenRow>& rows) {
    std::ofstream out(golden_path_, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path_;
    out << "# Scalar-kernel golden rankings (see tests/golden_test.cc).\n"
        << "# engine strategy query rank table_id score\n";
    char buf[64];
    for (const auto& row : rows) {
      std::snprintf(buf, sizeof(buf), "%.17g", row.score);
      out << row.engine << ' ' << row.strategy << ' ' << row.query << ' '
          << row.rank << ' ' << row.table_id << ' ' << buf << '\n';
    }
    ASSERT_TRUE(out.good()) << "short write to " << golden_path_;
  }

  table::DataLake lake_;
  std::unique_ptr<core::FcmModel> model_;
  std::vector<vision::ExtractedChart> queries_;
  std::string golden_path_;
  bool update_ = false;
};

TEST_F(GoldenTest, LiveRankingsMatchCheckedInGoldens) {
  const std::vector<GoldenRow> live = LiveRows();
  ASSERT_FALSE(live.empty());

  if (update_) {
    WriteGolden(live);
    std::printf("rewrote %zu golden rows to %s\n", live.size(),
                golden_path_.c_str());
    return;
  }

  const std::vector<GoldenRow> golden = ReadGolden();
  if (HasFailure()) return;  // missing/malformed fixture already reported
  ASSERT_EQ(golden.size(), live.size())
      << "ranking matrix shape changed; if intentional, regenerate with "
       "FCM_GOLDEN_UPDATE=1";
  for (size_t i = 0; i < live.size(); ++i) {
    const GoldenRow& g = golden[i];
    const GoldenRow& l = live[i];
    const std::string where = l.engine + "/" + l.strategy + " query " +
                              std::to_string(l.query) + " rank " +
                              std::to_string(l.rank);
    ASSERT_EQ(g.engine, l.engine) << where;
    ASSERT_EQ(g.strategy, l.strategy) << where;
    ASSERT_EQ(g.query, l.query) << where;
    ASSERT_EQ(g.rank, l.rank) << where;
    EXPECT_EQ(g.table_id, l.table_id) << "ranking drift at " << where;
    const double tolerance =
        kScoreTolerance * std::max(1.0, std::fabs(g.score));
    EXPECT_NEAR(g.score, l.score, tolerance) << "score drift at " << where;
  }
}

TEST_F(GoldenTest, PermutingTheLakePermutesTheRanking) {
  // Tables are scored one by one, so an engine over the reversed lake
  // must return the same hits under the reversed ids, with bit-identical
  // scores; only tied hits may swap. LSH buckets list payloads in item
  // order, and this pins that the order cannot leak into candidate sets.
  // The mean prefilter stays off: its tie-break depends on ids.
  table::DataLake reversed;
  for (int i = kTables - 1; i >= 0; --i) reversed.Add(lake_.tables()[i]);
  for (const auto precision : {idx::EmbeddingPrecision::kFloat32,
                               idx::EmbeddingPrecision::kInt8}) {
    SCOPED_TRACE(idx::EmbeddingPrecisionName(precision));
    idx::SearchEngineOptions options;
    options.precision = precision;
    idx::SearchEngine forward(model_.get(), &lake_);
    idx::SearchEngine backward(model_.get(), &reversed);
    forward.BuildWithOptions(options);
    backward.BuildWithOptions(options);
    for (const auto strategy : kAllStrategies) {
      for (int q = 0; q < kQueries; ++q) {
        const auto a = forward.Search(queries_[q], kTables, strategy);
        const auto b = backward.Search(queries_[q], kTables, strategy);
        ASSERT_EQ(a.size(), b.size());
        std::vector<std::pair<int64_t, double>> a_hits, b_hits;
        for (size_t r = 0; r < a.size(); ++r) {
          EXPECT_EQ(a[r].score, b[r].score)
              << StrategyToken(strategy) << " query " << q << " rank " << r;
          a_hits.emplace_back(a[r].table_id, a[r].score);
          b_hits.emplace_back(kTables - 1 - b[r].table_id, b[r].score);
        }
        std::sort(a_hits.begin(), a_hits.end());
        std::sort(b_hits.begin(), b_hits.end());
        EXPECT_EQ(a_hits, b_hits) << StrategyToken(strategy) << " query " << q;
      }
    }
  }
}

}  // namespace
}  // namespace fcm
