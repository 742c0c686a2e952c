// Tests for the frozen-engine snapshot lifecycle (SaveSnapshot /
// OpenSnapshot): a snapshot-served engine must rank bit-identically to
// the freshly built engine under Search, SearchBatch, and async
// coalescing, over both mmap and heap backings; opening it must beat
// rebuilding the engine; and any corruption of the snapshot must fail
// the open with a Status error.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chart/renderer.h"
#include "common/serialize.h"
#include "core/fcm_config.h"
#include "core/fcm_model.h"
#include "index/async_service.h"
#include "index/search_engine.h"
#include "storage/snapshot.h"
#include "table/data_lake.h"
#include "table/data_series.h"
#include "vision/mask_oracle_extractor.h"

namespace fcm::index {
namespace {

const IndexStrategy kAllStrategies[] = {
    IndexStrategy::kNoIndex, IndexStrategy::kIntervalTree,
    IndexStrategy::kLsh, IndexStrategy::kHybrid};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectSameHits(const std::vector<SearchHit>& a,
                    const std::vector<SearchHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].table_id, b[i].table_id) << "rank " << i;
    // Bit-identical, not approximately equal: the snapshot-served engine
    // runs the same query code over the same frozen arrays.
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

class EngineSnapshotTest : public ::testing::Test {
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
    engine_ = std::make_unique<SearchEngine>(model_.get(), &lake_);
    engine_->BuildWithOptions({});

    vision::MaskOracleExtractor oracle;
    for (int q = 0; q < 3; ++q) {
      table::DataSeries d;
      d.y = lake_.Get(q * 4).column(q % 3).values;
      queries_.push_back(
          oracle.Extract(chart::RenderLineChart({d})).value());
    }

    path_ = TempPath("engine.fcmsnap");
    ASSERT_TRUE(engine_->SaveSnapshot(path_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<SearchEngine> OpenSnap(bool use_mmap = true) {
    SnapshotOpenOptions options;
    options.use_mmap = use_mmap;
    auto opened = SearchEngine::OpenSnapshot(path_, options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? std::move(opened).ValueOrDie() : nullptr;
  }

  table::DataLake lake_;
  std::unique_ptr<core::FcmModel> model_;
  std::unique_ptr<SearchEngine> engine_;
  std::vector<vision::ExtractedChart> queries_;
  std::string path_;
};

TEST_F(EngineSnapshotTest, Version2MetaFailsOpenNamingIt) {
  // Re-save the snapshot with the meta stream's leading version replaced
  // by 2, then in the v2 layout: no leading version, and a trailing
  // {version 2, precision, mean_prefilter} block.
  static constexpr uint32_t kV2[3] = {2, 0, 0};
  const auto* v2 = reinterpret_cast<const uint8_t*>(kV2);
  for (const bool v2_layout : {false, true}) {
    auto reader = storage::SnapshotReader::Open(path_);
    ASSERT_TRUE(reader.ok());
    storage::SnapshotWriter writer;
    for (const auto& name : reader.value()->section_names()) {
      std::vector<uint8_t> data =
          reader.value()->Section(name).value().ToVector();
      if (name == "meta") {
        data.erase(data.begin(), data.begin() + sizeof(uint32_t));
        data.insert(v2_layout ? data.end() : data.begin(), v2,
                    v2 + (v2_layout ? sizeof(kV2) : sizeof(uint32_t)));
      }
      writer.AddSection(name, data.data(), data.size());
    }
    const std::string v2_path = TempPath("v2.fcmsnap");
    ASSERT_TRUE(writer.WriteToFile(v2_path).ok());
    auto opened = SearchEngine::OpenSnapshot(v2_path);
    std::remove(v2_path.c_str());
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), common::StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().ToString().find("meta version 2"),
              std::string::npos)
        << opened.status().ToString();
  }
}

TEST_F(EngineSnapshotTest, HugeRecordCountsFailOpenWithStatus) {
  // Re-save the snapshot with one record count rewritten to 2^40: the meta
  // stream's table count (bytes 4-11, right after the version) and table
  // 0's column count (the first u64 of enc.index). Both files are
  // checksum-valid, so only the reader's handling of the count stands
  // between them and a 2^40-entry allocation.
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  const std::pair<std::string, size_t> fields[] = {{"meta", 4},
                                                   {"enc.index", 0}};
  for (const auto& [section, offset] : fields) {
    auto reader = storage::SnapshotReader::Open(path_);
    ASSERT_TRUE(reader.ok());
    storage::SnapshotWriter writer;
    for (const auto& name : reader.value()->section_names()) {
      std::vector<uint8_t> data =
          reader.value()->Section(name).value().ToVector();
      if (name == section) {
        ASSERT_GE(data.size(), offset + sizeof(kHuge));
        std::memcpy(data.data() + offset, &kHuge, sizeof(kHuge));
      }
      writer.AddSection(name, data.data(), data.size());
    }
    const std::string huge_path = TempPath("huge_count.fcmsnap");
    ASSERT_TRUE(writer.WriteToFile(huge_path).ok());
    auto opened = SearchEngine::OpenSnapshot(huge_path);
    std::remove(huge_path.c_str());
    EXPECT_FALSE(opened.ok()) << section << " count accepted";
  }
}

TEST_F(EngineSnapshotTest, SaveRequiresBuiltEngine) {
  SearchEngine unbuilt(model_.get(), &lake_);
  const auto status = unbuilt.SaveSnapshot(TempPath("unbuilt.fcmsnap"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
}

TEST_F(EngineSnapshotTest, SearchIdenticalAcrossAllStrategies) {
  const auto snap = OpenSnap();
  ASSERT_NE(snap, nullptr);
  for (const auto strategy : kAllStrategies) {
    for (size_t q = 0; q < queries_.size(); ++q) {
      for (const int k : {1, 5, static_cast<int>(lake_.size())}) {
        QueryStats built_stats, snap_stats;
        const auto built =
            engine_->Search(queries_[q], k, strategy, &built_stats);
        const auto served =
            snap->Search(queries_[q], k, strategy, &snap_stats);
        ExpectSameHits(built, served);
        // Same pruning decisions, not just the same survivors.
        EXPECT_EQ(built_stats.candidates_scored, snap_stats.candidates_scored)
            << IndexStrategyName(strategy) << " q=" << q << " k=" << k;
      }
    }
  }
}

TEST_F(EngineSnapshotTest, HeapBackingMatchesMmap) {
  const auto via_mmap = OpenSnap(/*use_mmap=*/true);
  const auto via_heap = OpenSnap(/*use_mmap=*/false);
  ASSERT_NE(via_mmap, nullptr);
  ASSERT_NE(via_heap, nullptr);
  for (const auto strategy : kAllStrategies) {
    for (const auto& q : queries_) {
      ExpectSameHits(via_mmap->Search(q, 6, strategy),
                     via_heap->Search(q, 6, strategy));
    }
  }
}

TEST_F(EngineSnapshotTest, SearchBatchIdentical) {
  const auto snap = OpenSnap();
  ASSERT_NE(snap, nullptr);
  for (const auto strategy : kAllStrategies) {
    const auto built = engine_->SearchBatch(queries_, 4, strategy);
    const auto served = snap->SearchBatch(queries_, 4, strategy);
    ASSERT_EQ(built.size(), served.size());
    for (size_t i = 0; i < built.size(); ++i) {
      ExpectSameHits(built[i], served[i]);
    }
  }
}

TEST_F(EngineSnapshotTest, AsyncCoalescingIdentical) {
  const auto snap = OpenSnap();
  ASSERT_NE(snap, nullptr);
  // Coalesce aggressively over the snapshot-served engine; every request
  // must still match the built engine's synchronous Search.
  AsyncServiceOptions options;
  options.max_batch_size = 64;
  options.max_batch_delay_ms = 5.0;
  AsyncSearchService service(snap.get(), options);
  std::vector<std::future<std::vector<SearchHit>>> futures;
  std::vector<std::vector<SearchHit>> expected;
  for (size_t q = 0; q < queries_.size(); ++q) {
    for (const auto strategy : kAllStrategies) {
      const int k = 2 + static_cast<int>(q);
      futures.push_back(service.Submit(queries_[q], k, strategy));
      expected.push_back(engine_->Search(queries_[q], k, strategy));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectSameHits(futures[i].get(), expected[i]);
  }
  service.Shutdown();
}

TEST_F(EngineSnapshotTest, OpenIsFasterThanRebuild) {
  // The point of persisting the frozen engine: a serving process that
  // opens the snapshot skips re-encoding the lake.
  using Clock = std::chrono::steady_clock;
  SearchEngine rebuilt(model_.get(), &lake_);
  const auto t_build = Clock::now();
  rebuilt.BuildWithOptions(SearchEngineOptions{});
  const auto build_time = Clock::now() - t_build;
  const std::string path = TempPath("rebuilt.fcmsnap");
  ASSERT_TRUE(rebuilt.SaveSnapshot(path).ok());
  const auto t_open = Clock::now();
  auto opened = SearchEngine::OpenSnapshot(path);
  const auto open_time = Clock::now() - t_open;
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_LT(open_time, build_time)
      << "open " << std::chrono::duration<double>(open_time).count()
      << " s vs build " << std::chrono::duration<double>(build_time).count()
      << " s";
  std::remove(path.c_str());
}

TEST_F(EngineSnapshotTest, XDerivationEngineRoundtrips) {
  SearchEngineOptions options;
  options.index_x_derivations = true;
  options.x_derivation_grid = 32;
  SearchEngine built(model_.get(), &lake_);
  built.BuildWithOptions(options);
  const std::string path = TempPath("xderiv.fcmsnap");
  ASSERT_TRUE(built.SaveSnapshot(path).ok());
  auto opened = SearchEngine::OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (const auto strategy : kAllStrategies) {
    for (const auto& q : queries_) {
      ExpectSameHits(built.Search(q, 5, strategy),
                     opened.value()->Search(q, 5, strategy));
    }
  }
  std::remove(path.c_str());
}

TEST_F(EngineSnapshotTest, BuildStatsReportMemory) {
  const auto snap = OpenSnap();
  ASSERT_NE(snap, nullptr);
  EXPECT_GT(snap->build_stats().lsh_memory_bytes, 0u);
  EXPECT_GT(snap->build_stats().interval_memory_bytes, 0u);
}

// Corruption on a REAL engine snapshot (storage_test covers the synthetic
// container exhaustively): sampled byte flips must fail container
// validation, and truncated files must fail the engine open.
TEST_F(EngineSnapshotTest, SampledByteFlipsFailValidation) {
  auto bytes = common::BinaryReader::LoadFileBytes(path_);
  ASSERT_TRUE(bytes.ok());
  const auto& image = bytes.value();
  ASSERT_GT(image.size(), 0u);
  const size_t stride = std::max<size_t>(1, image.size() / 257);
  for (size_t i = 0; i < image.size(); i += stride) {
    auto bad = image;
    bad[i] ^= 0xFF;
    EXPECT_FALSE(storage::SnapshotReader::OpenFromBuffer(std::move(bad)).ok())
        << "flip at byte " << i << " of " << image.size() << " validated";
  }
}

TEST_F(EngineSnapshotTest, TruncatedFilesFailOpen) {
  auto bytes = common::BinaryReader::LoadFileBytes(path_);
  ASSERT_TRUE(bytes.ok());
  const auto& image = bytes.value();
  const std::string path = TempPath("truncated.fcmsnap");
  for (const double frac : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const size_t len = static_cast<size_t>(frac * image.size());
    common::BinaryWriter w;
    w.WriteBytes(image.data(), len);
    ASSERT_TRUE(w.SaveToFile(path).ok());
    auto opened = SearchEngine::OpenSnapshot(path);
    EXPECT_FALSE(opened.ok()) << "truncation to " << len << " bytes opened";
  }
  std::remove(path.c_str());
}

TEST_F(EngineSnapshotTest, MissingSectionFailsOpen) {
  // A structurally valid container that is not an engine snapshot.
  storage::SnapshotWriter w;
  const std::vector<float> junk = {1.0f, 2.0f};
  w.AddTypedSection("means.f32", junk);
  const std::string path = TempPath("notanengine.fcmsnap");
  ASSERT_TRUE(w.WriteToFile(path).ok());
  EXPECT_FALSE(SearchEngine::OpenSnapshot(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fcm::index
