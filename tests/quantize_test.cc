// Tests for the int8 quantized embedding tier: quantize/dequantize
// round-trip properties (error bound vs scale, all-zero rows,
// single-element rows, saturation clipping), and the engine-level
// contract — a kInt8 engine ranks bit-identically across thread counts,
// Search vs SearchBatch, and snapshot round-trips over both backings;
// the mean-similarity prefilter caps candidates deterministically in
// both precision modes; at the default embed_dim the int8 block is at
// most 0.30x the f32 bytes and int8 top-k keeps >= 0.95 of the f32
// top-k; and a snapshot whose meta stream lacks its leading version is
// rejected.

#include "common/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chart/renderer.h"
#include "common/rng.h"
#include "core/fcm_config.h"
#include "core/fcm_model.h"
#include "index/search_engine.h"
#include "storage/snapshot.h"
#include "table/data_lake.h"
#include "table/data_series.h"
#include "vision/mask_oracle_extractor.h"

namespace fcm {
namespace {

std::vector<float> RandomRow(size_t n, double magnitude, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal() * magnitude);
  return v;
}

TEST(QuantizeTest, RoundTripErrorBoundedByHalfScale) {
  // Symmetric round-to-nearest: per-element reconstruction error is at
  // most scale / 2, plus a whisker of float rounding slack from the
  // v * (1/scale) computation.
  for (const double magnitude : {1e-4, 1.0, 3.7e3}) {
    for (const size_t n : {size_t{1}, size_t{5}, size_t{64}, size_t{257}}) {
      const auto row = RandomRow(n, magnitude, 17 + n);
      std::vector<int8_t> codes(n);
      const float scale = common::QuantizeRow(row.data(), n, codes.data());
      ASSERT_GT(scale, 0.0f);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_GE(codes[i], -127);
        EXPECT_LE(codes[i], 127);
        const float recon = common::Dequantize(codes[i], scale);
        EXPECT_LE(std::fabs(row[i] - recon), scale * 0.501f)
            << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(QuantizeTest, QuantizationIsDeterministic) {
  const auto row = RandomRow(96, 2.5, 23);
  std::vector<int8_t> a(row.size()), b(row.size());
  const float sa = common::QuantizeRow(row.data(), row.size(), a.data());
  const float sb = common::QuantizeRow(row.data(), row.size(), b.data());
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(a, b);
}

TEST(QuantizeTest, AllZeroRowQuantizesToZeroScaleAndExactZeros) {
  const std::vector<float> row(33, 0.0f);
  std::vector<int8_t> codes(row.size(), 42);
  const float scale = common::QuantizeRow(row.data(), row.size(),
                                          codes.data());
  EXPECT_EQ(scale, 0.0f);
  for (const int8_t c : codes) EXPECT_EQ(c, 0);
  std::vector<float> recon(row.size(), 1.0f);
  common::DequantizeRow(codes.data(), codes.size(), scale, recon.data());
  for (const float v : recon) EXPECT_EQ(v, 0.0f);
}

TEST(QuantizeTest, SingleElementRowSaturatesTheRange) {
  // One element defines maxabs, so it lands exactly on +/-127.
  for (const float v : {3.25f, -0.004f, 1.0e6f}) {
    int8_t code = 0;
    const float scale = common::QuantizeRow(&v, 1, &code);
    EXPECT_EQ(code, v > 0 ? 127 : -127) << v;
    EXPECT_NEAR(common::Dequantize(code, scale), v,
                std::fabs(v) * 1e-5f) << v;
  }
}

TEST(QuantizeTest, OutOfRangeValuesClampToSymmetric127) {
  // A fixed scale too small for the data must saturate at +/-127 on both
  // sides; -128 is never produced (the int8 SIMD kernels' precondition).
  const std::vector<float> row = {10.0f, -10.0f, 0.3f, -127.4f, 400.0f};
  std::vector<int8_t> codes(row.size());
  common::QuantizeRowWithScale(row.data(), row.size(), 0.05f, codes.data());
  EXPECT_EQ(codes[0], 127);
  EXPECT_EQ(codes[1], -127);
  EXPECT_EQ(codes[2], 6);  // round(0.3 / 0.05)
  EXPECT_EQ(codes[3], -127);
  EXPECT_EQ(codes[4], 127);
  for (const int8_t c : codes) EXPECT_GE(c, -127);
}

TEST(QuantizeTest, NonPositiveScaleWritesZeros) {
  const std::vector<float> row = {1.0f, -2.0f, 3.0f};
  std::vector<int8_t> codes(row.size(), 9);
  common::QuantizeRowWithScale(row.data(), row.size(), 0.0f, codes.data());
  for (const int8_t c : codes) EXPECT_EQ(c, 0);
}

// ---- Engine-level int8 tier ----

namespace idx = fcm::index;

const idx::IndexStrategy kAllStrategies[] = {
    idx::IndexStrategy::kNoIndex, idx::IndexStrategy::kIntervalTree,
    idx::IndexStrategy::kLsh, idx::IndexStrategy::kHybrid};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectSameHits(const std::vector<idx::SearchHit>& a,
                    const std::vector<idx::SearchHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].table_id, b[i].table_id) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

class Int8EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 12; ++i) {
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
    for (int q = 0; q < 3; ++q) {
      table::DataSeries d;
      d.y = lake_.Get(q * 4).column(q % 3).values;
      queries_.push_back(
          oracle.Extract(chart::RenderLineChart({d})).value());
    }
  }

  std::unique_ptr<idx::SearchEngine> BuildEngine(
      idx::EmbeddingPrecision precision, int prefilter, int threads) const {
    idx::SearchEngineOptions options;
    options.precision = precision;
    options.mean_prefilter = prefilter;
    options.num_threads = threads;
    auto engine = std::make_unique<idx::SearchEngine>(model_.get(), &lake_);
    engine->BuildWithOptions(options);
    return engine;
  }

  table::DataLake lake_;
  std::unique_ptr<core::FcmModel> model_;
  std::vector<vision::ExtractedChart> queries_;
};

TEST_F(Int8EngineTest, Int8RankingsIdenticalAcrossThreadsAndBatching) {
  // The determinism contract for a fixed precision mode: thread count and
  // batching must not change a single bit of any ranking.
  const auto serial = BuildEngine(idx::EmbeddingPrecision::kInt8, 4, 1);
  const auto pooled = BuildEngine(idx::EmbeddingPrecision::kInt8, 4, 3);
  for (const auto strategy : kAllStrategies) {
    const auto batched = pooled->SearchBatch(queries_, 5, strategy);
    ASSERT_EQ(batched.size(), queries_.size());
    for (size_t q = 0; q < queries_.size(); ++q) {
      const auto one_serial = serial->Search(queries_[q], 5, strategy);
      const auto one_pooled = pooled->Search(queries_[q], 5, strategy);
      ExpectSameHits(one_serial, one_pooled);
      ExpectSameHits(one_serial, batched[q]);
    }
  }
}

TEST_F(Int8EngineTest, F32PrefilterRankingsIdenticalAcrossBatching) {
  // The prefilter path must hold the same contract in f32 mode.
  const auto engine = BuildEngine(idx::EmbeddingPrecision::kFloat32, 4, 2);
  for (const auto strategy : kAllStrategies) {
    const auto batched = engine->SearchBatch(queries_, 5, strategy);
    for (size_t q = 0; q < queries_.size(); ++q) {
      ExpectSameHits(engine->Search(queries_[q], 5, strategy), batched[q]);
    }
  }
}

TEST_F(Int8EngineTest, PrefilterCapsCandidatesScored) {
  const int prefilter = 4;
  const auto full = BuildEngine(idx::EmbeddingPrecision::kInt8, 0, 2);
  const auto pruned =
      BuildEngine(idx::EmbeddingPrecision::kInt8, prefilter, 2);
  idx::QueryStats full_stats, pruned_stats;
  full->Search(queries_[0], 3, idx::IndexStrategy::kNoIndex, &full_stats);
  pruned->Search(queries_[0], 3, idx::IndexStrategy::kNoIndex,
                 &pruned_stats);
  EXPECT_EQ(full_stats.candidates_scored, lake_.size());
  EXPECT_EQ(pruned_stats.candidates_scored, static_cast<size_t>(prefilter));
}

TEST_F(Int8EngineTest, Int8SnapshotRoundTripBitIdentical) {
  const auto built = BuildEngine(idx::EmbeddingPrecision::kInt8, 4, 2);
  const std::string path = TempPath("int8engine.fcmsnap");
  ASSERT_TRUE(built->SaveSnapshot(path).ok());
  for (const bool use_mmap : {true, false}) {
    idx::SnapshotOpenOptions options;
    options.use_mmap = use_mmap;
    auto opened = idx::SearchEngine::OpenSnapshot(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const auto& served = opened.value();
    EXPECT_EQ(served->precision(), idx::EmbeddingPrecision::kInt8);
    EXPECT_EQ(served->embedding_bytes(), built->embedding_bytes());
    for (const auto strategy : kAllStrategies) {
      for (const auto& q : queries_) {
        idx::QueryStats built_stats, served_stats;
        ExpectSameHits(built->Search(q, 6, strategy, &built_stats),
                       served->Search(q, 6, strategy, &served_stats));
        // Same pruning decisions, not just the same survivors.
        EXPECT_EQ(built_stats.candidates_scored,
                  served_stats.candidates_scored);
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(Int8EngineTest, Int8SnapshotCarriesNoF32MeansSection) {
  const auto built = BuildEngine(idx::EmbeddingPrecision::kInt8, 0, 1);
  const std::string path = TempPath("int8sections.fcmsnap");
  ASSERT_TRUE(built->SaveSnapshot(path).ok());
  auto reader = storage::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const auto names = reader.value()->section_names();
  const auto has = [&](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("means.i8"));
  EXPECT_TRUE(has("means.scale.f32"));
  EXPECT_FALSE(has("means.f32"));
  EXPECT_EQ(reader.value()->SectionBytes("means.i8") +
                reader.value()->SectionBytes("means.scale.f32"),
            built->embedding_bytes());
  std::remove(path.c_str());
}

TEST_F(Int8EngineTest, SnapshotMetaWithoutVersionFailsOpen) {
  // Rebuild a saved snapshot with the leading version cut from its meta
  // stream, which then starts with the u64 table count as v1 and v2
  // streams did. Nothing would say how to parse the rest, so the open must
  // fail instead of misreading the fields.
  const auto built = BuildEngine(idx::EmbeddingPrecision::kFloat32, 0, 1);
  const std::string path = TempPath("v3.fcmsnap");
  ASSERT_TRUE(built->SaveSnapshot(path).ok());
  auto reader = storage::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());
  storage::SnapshotWriter writer;
  for (const auto& name : reader.value()->section_names()) {
    auto bytes = reader.value()->Section(name);
    ASSERT_TRUE(bytes.ok());
    const uint8_t* data = bytes.value().data();
    size_t size = bytes.value().size();
    if (name == "meta") {
      ASSERT_GT(size, sizeof(uint32_t));
      data += sizeof(uint32_t);
      size -= sizeof(uint32_t);
    }
    writer.AddSection(name, data, size);
  }
  const std::string unversioned_path = TempPath("unversioned.fcmsnap");
  ASSERT_TRUE(writer.WriteToFile(unversioned_path).ok());

  auto opened = idx::SearchEngine::OpenSnapshot(unversioned_path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), common::StatusCode::kInvalidArgument)
      << opened.status().ToString();
  std::remove(path.c_str());
  std::remove(unversioned_path.c_str());
}

// ---- The int8 tier at the default embedding width ----

// The shipped configuration (default embed_dim 32; one encoder layer keeps
// the build fast) over a lake larger than the prefilter, so quantizing the
// means can change which candidates survive the prefilter.
class Int8DefaultDimTest : public ::testing::Test {
 protected:
  static constexpr int kTables = 48;
  static constexpr int kPrefilter = 32;
  static constexpr int kQueries = 12;
  static constexpr int kTopK = 10;

  void SetUp() override {
    for (int i = 0; i < kTables; ++i) {
      table::Table t;
      for (int c = 0; c < 3; ++c) {
        std::vector<double> v(96);
        for (size_t j = 0; j < v.size(); ++j) {
          v[j] = std::sin(static_cast<double>(j) * (0.03 + 0.011 * (i % 17)) +
                          1.3 * c) *
                     (2.0 + (i % 7)) +
                 0.8 * c;
        }
        t.AddColumn(table::Column("c" + std::to_string(c), std::move(v)));
      }
      lake_.Add(std::move(t));
    }
    core::FcmConfig config;
    ASSERT_EQ(config.embed_dim, 32);
    config.num_layers = 1;
    model_ = std::make_unique<core::FcmModel>(config);

    vision::MaskOracleExtractor oracle;
    for (int q = 0; q < kQueries; ++q) {
      table::DataSeries d;
      d.y = lake_.Get(static_cast<size_t>(q * 5 % kTables))
                .column(q % 3)
                .values;
      queries_.push_back(
          oracle.Extract(chart::RenderLineChart({d})).value());
    }
  }

  std::unique_ptr<idx::SearchEngine> BuildEngine(
      idx::EmbeddingPrecision precision) const {
    idx::SearchEngineOptions options;
    options.precision = precision;
    options.mean_prefilter = kPrefilter;
    auto engine = std::make_unique<idx::SearchEngine>(model_.get(), &lake_);
    engine->BuildWithOptions(options);
    return engine;
  }

  table::DataLake lake_;
  std::unique_ptr<core::FcmModel> model_;
  std::vector<vision::ExtractedChart> queries_;
};

TEST_F(Int8DefaultDimTest, Int8BlockIsAtMostThirtyPercentOfF32) {
  const auto f32 = BuildEngine(idx::EmbeddingPrecision::kFloat32);
  const auto int8 = BuildEngine(idx::EmbeddingPrecision::kInt8);
  ASSERT_GT(f32->embedding_bytes(), 0u);
  ASSERT_GT(int8->embedding_bytes(), 0u);
  // Per row: 32 code bytes + a 4-byte scale against 128 f32 bytes, 0.281x.
  EXPECT_LE(int8->embedding_bytes() * 100, f32->embedding_bytes() * 30);
  EXPECT_EQ(int8->build_stats().embedding_bytes, int8->embedding_bytes());
}

TEST_F(Int8DefaultDimTest, Int8TopKOverlapsF32AtLeastNinetyFivePercent) {
  const auto f32 = BuildEngine(idx::EmbeddingPrecision::kFloat32);
  const auto int8 = BuildEngine(idx::EmbeddingPrecision::kInt8);
  double overlap_sum = 0.0;
  for (const auto& q : queries_) {
    idx::QueryStats f32_stats, int8_stats;
    const auto want =
        f32->Search(q, kTopK, idx::IndexStrategy::kNoIndex, &f32_stats);
    const auto got =
        int8->Search(q, kTopK, idx::IndexStrategy::kNoIndex, &int8_stats);
    // The prefilter is live: both precisions score kPrefilter candidates.
    EXPECT_EQ(f32_stats.candidates_scored, static_cast<size_t>(kPrefilter));
    EXPECT_EQ(int8_stats.candidates_scored, static_cast<size_t>(kPrefilter));
    ASSERT_EQ(want.size(), static_cast<size_t>(kTopK));
    size_t common = 0;
    for (const auto& g : got) {
      for (const auto& w : want) {
        if (g.table_id == w.table_id) {
          ++common;
          break;
        }
      }
    }
    overlap_sum += static_cast<double>(common) / static_cast<double>(kTopK);
  }
  EXPECT_GE(overlap_sum / static_cast<double>(queries_.size()), 0.95);
}

}  // namespace
}  // namespace fcm
