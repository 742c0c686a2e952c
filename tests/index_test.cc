// Tests for src/index: interval tree (vs brute force), LSH collision
// behaviour, and the hybrid search engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "chart/renderer.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "index/interval_tree.h"
#include "index/lsh.h"
#include "index/search_engine.h"
#include "vision/mask_oracle_extractor.h"

namespace fcm::index {
namespace {

TEST(IntervalTreeTest, PointQueriesKnownLayout) {
  IntervalTree tree({{0.0, 10.0, 1}, {5.0, 15.0, 2}, {20.0, 30.0, 3}});
  auto sorted = [](std::vector<int64_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(tree.QueryPoint(7.0)), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(sorted(tree.QueryPoint(25.0)), (std::vector<int64_t>{3}));
  EXPECT_TRUE(tree.QueryPoint(17.0).empty());
}

TEST(IntervalTreeTest, OverlapQueryBoundariesInclusive) {
  IntervalTree tree({{0.0, 10.0, 1}});
  EXPECT_EQ(tree.QueryOverlap(10.0, 20.0).size(), 1u);
  EXPECT_EQ(tree.QueryOverlap(-5.0, 0.0).size(), 1u);
  EXPECT_TRUE(tree.QueryOverlap(10.001, 20.0).empty());
}

TEST(IntervalTreeTest, EmptyTree) {
  IntervalTree tree(std::vector<Interval>{});
  EXPECT_TRUE(tree.QueryOverlap(0.0, 1.0).empty());
  EXPECT_EQ(tree.size(), 0u);
}

class IntervalTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IntervalTreePropertyTest, MatchesBruteForce) {
  common::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  std::vector<Interval> intervals;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    const double lo = rng.Uniform(-100.0, 100.0);
    const double hi = lo + rng.Uniform(0.0, 50.0);
    intervals.push_back({lo, hi, i});
  }
  IntervalTree tree(intervals);
  for (int q = 0; q < 20; ++q) {
    const double qlo = rng.Uniform(-120.0, 120.0);
    const double qhi = qlo + rng.Uniform(0.0, 60.0);
    std::vector<int64_t> expected;
    for (const auto& iv : intervals) {
      if (iv.Overlaps(qlo, qhi)) expected.push_back(iv.payload);
    }
    auto got = tree.QueryOverlap(qlo, qhi);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "query [" << qlo << ", " << qhi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomIntervals, IntervalTreePropertyTest,
                         ::testing::Range(0, 10));

TEST(IntervalTreeTest, MemoryReported) {
  IntervalTree tree({{0.0, 1.0, 1}, {2.0, 3.0, 2}});
  EXPECT_GT(tree.MemoryBytes(), 0u);
}

std::vector<std::vector<float>> RandomEmbeddings(int n, int dim,
                                                 uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<float>> out(static_cast<size_t>(n));
  for (auto& v : out) {
    v.resize(static_cast<size_t>(dim));
    for (auto& x : v) x = static_cast<float>(rng.Normal());
  }
  return out;
}

/// Builds an index over `embeddings` with payloads[i] (item i's payload),
/// or i when `payloads` is empty.
RandomHyperplaneLsh BuildLsh(int dim, const LshConfig& config,
                             const std::vector<std::vector<float>>& embeddings,
                             const std::vector<int64_t>& payloads = {},
                             int num_threads = 1) {
  std::vector<LshItem> items;
  for (size_t i = 0; i < embeddings.size(); ++i) {
    items.push_back({embeddings[i].data(),
                     payloads.empty() ? static_cast<int64_t>(i)
                                      : payloads[i]});
  }
  common::ThreadPool pool(num_threads);
  return RandomHyperplaneLsh(dim, config, items, &pool);
}

TEST(LshTest, SelfQueryCollides) {
  const auto v = RandomEmbeddings(1, 16, 3);
  const auto lsh = BuildLsh(16, LshConfig(), v, {42});
  const auto hits = lsh.Query(v[0]);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42);
}

TEST(LshTest, SimilarVectorsCollideMoreThanRandom) {
  LshConfig config;
  config.num_bits = 10;
  config.num_tables = 2;
  config.probe_hamming1 = false;
  common::Rng rng(4);
  std::vector<float> base(32);
  for (auto& x : base) x = static_cast<float>(rng.Normal());
  const auto lsh = BuildLsh(32, config, {base});

  int near_hits = 0, far_hits = 0;
  const int trials = 60;
  for (int i = 0; i < trials; ++i) {
    std::vector<float> near = base, far(32);
    for (auto& x : near) x += static_cast<float>(rng.Normal(0.0, 0.1));
    for (auto& x : far) x = static_cast<float>(rng.Normal());
    if (!lsh.Query(near).empty()) ++near_hits;
    if (!lsh.Query(far).empty()) ++far_hits;
  }
  EXPECT_GT(near_hits, far_hits);
  EXPECT_GT(near_hits, trials / 2);
}

TEST(LshTest, CodeIsStablePerTable) {
  const auto lsh = BuildLsh(8, LshConfig(), {});
  const auto v = RandomEmbeddings(1, 8, 5)[0];
  EXPECT_EQ(lsh.Code(v, 0), lsh.Code(v, 0));
  // Different tables use different hyperplanes (almost surely different
  // codes for a random vector with 12 bits).
  EXPECT_NE(lsh.Code(v, 0), lsh.Code(v, 1));
}

TEST(LshTest, Hamming1ProbingWidensRecall) {
  LshConfig narrow;
  narrow.probe_hamming1 = false;
  narrow.num_tables = 1;
  LshConfig wide = narrow;
  wide.probe_hamming1 = true;
  const auto items = RandomEmbeddings(40, 16, 6);
  const auto a = BuildLsh(16, narrow, items);
  const auto b = BuildLsh(16, wide, items);
  common::Rng rng(7);
  // A probe counts only when it finds its own item, so the wider probe's
  // extra buckets cannot score by catching a different item.
  int a_hits = 0, b_hits = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    std::vector<float> near = items[i];
    for (auto& x : near) x += static_cast<float>(rng.Normal(0.0, 0.15));
    const auto own = static_cast<int64_t>(i);
    const auto a_found = a.Query(near), b_found = b.Query(near);
    a_hits += std::binary_search(a_found.begin(), a_found.end(), own);
    b_hits += std::binary_search(b_found.begin(), b_found.end(), own);
  }
  EXPECT_GE(b_hits, a_hits);
  EXPECT_GT(b_hits, 0);
}

TEST(LshTest, FrozenArraysMatchNaiveReference) {
  // Few bits and three items per payload make buckets that hold several
  // payloads and adjacent duplicates to drop.
  LshConfig config;
  config.num_bits = 3;
  config.num_tables = 3;
  const auto embeddings = RandomEmbeddings(90, 16, 21);
  std::vector<int64_t> payloads;
  for (size_t i = 0; i < embeddings.size(); ++i) {
    payloads.push_back(static_cast<int64_t>(i / 3));
  }
  for (int threads : {1, 4}) {
    const auto lsh = BuildLsh(16, config, embeddings, payloads, threads);
    EXPECT_EQ(lsh.num_items(), embeddings.size());
    std::vector<uint64_t> table_begin, codes, payload_begin;
    std::vector<int64_t> flat;
    size_t max_bucket = 0;
    for (int t = 0; t < config.num_tables; ++t) {
      // Codes ascending; each bucket's payloads in item order with
      // adjacent duplicates dropped.
      std::map<uint64_t, std::vector<int64_t>> buckets;
      for (size_t i = 0; i < embeddings.size(); ++i) {
        auto& bucket = buckets[lsh.Code(embeddings[i], t)];
        if (bucket.empty() || bucket.back() != payloads[i]) {
          bucket.push_back(payloads[i]);
        }
      }
      table_begin.push_back(codes.size());
      for (const auto& [code, bucket] : buckets) {
        codes.push_back(code);
        payload_begin.push_back(flat.size());
        flat.insert(flat.end(), bucket.begin(), bucket.end());
        max_bucket = std::max(max_bucket, bucket.size());
      }
    }
    table_begin.push_back(codes.size());
    payload_begin.push_back(flat.size());
    EXPECT_GT(max_bucket, 1u);
    EXPECT_LT(flat.size(), embeddings.size() * config.num_tables);

    const auto& frozen = lsh.frozen();
    EXPECT_EQ(frozen.table_begin.ToVector(), table_begin) << threads;
    EXPECT_EQ(frozen.codes.ToVector(), codes) << threads;
    EXPECT_EQ(frozen.payload_begin.ToVector(), payload_begin) << threads;
    EXPECT_EQ(frozen.payloads.ToVector(), flat) << threads;
  }
}

TEST(LshTest, QueryBatchMatchesQuery) {
  const auto lsh = BuildLsh(16, LshConfig(), RandomEmbeddings(120, 16, 31));
  const auto queries = RandomEmbeddings(25, 16, 32);
  common::ThreadPool pool(4);
  const auto batched = lsh.QueryBatch(queries, &pool);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], lsh.Query(queries[i])) << "query " << i;
  }
}

TEST(LshTest, FromFrozenRejectsOffsetsPastTheCodes) {
  // Snapshot bytes are outside input: a table range running past the code
  // array must fail validation before any code is read through it.
  LshConfig config;
  config.num_bits = 2;
  config.num_tables = 2;
  const std::vector<float> planes(2 * 2 * 4, 1.0f);
  const std::vector<uint64_t> table_begin = {0, 5, 2}, codes = {1, 2};
  const std::vector<uint64_t> payload_begin = {0, 1, 2};
  const std::vector<int64_t> payloads = {0, 1};
  const auto lsh = RandomHyperplaneLsh::FromFrozen(
      4, config, 2, {planes, table_begin, codes, payload_begin, payloads});
  ASSERT_FALSE(lsh.ok());
  EXPECT_EQ(lsh.status().code(), common::StatusCode::kInvalidArgument);
}

// ---- Search engine over a small trained-free setup ----

class SearchEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small repository of sinusoid tables.
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

    const auto& src = lake_.Get(2);
    table::DataSeries d;
    d.y = src.column(0).values;
    const auto chart = chart::RenderLineChart({d});
    vision::MaskOracleExtractor oracle;
    query_ = oracle.Extract(chart).value();
  }

  table::DataLake lake_;
  std::unique_ptr<core::FcmModel> model_;
  std::unique_ptr<SearchEngine> engine_;
  vision::ExtractedChart query_;
};

TEST_F(SearchEngineTest, NoIndexScoresWholeLake) {
  QueryStats stats;
  const auto hits = engine_->Search(query_, 5, IndexStrategy::kNoIndex,
                                    &stats);
  EXPECT_EQ(stats.candidates_scored, lake_.size());
  EXPECT_EQ(hits.size(), 5u);
  // Results sorted by score descending.
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
}

TEST_F(SearchEngineTest, IntervalPruningNeverAddsCandidates) {
  QueryStats no_index, interval;
  engine_->Search(query_, 5, IndexStrategy::kNoIndex, &no_index);
  engine_->Search(query_, 5, IndexStrategy::kIntervalTree, &interval);
  EXPECT_LE(interval.candidates_scored, no_index.candidates_scored);
}

TEST_F(SearchEngineTest, HybridIsIntersection) {
  QueryStats interval, lsh, hybrid;
  engine_->Search(query_, 5, IndexStrategy::kIntervalTree, &interval);
  engine_->Search(query_, 5, IndexStrategy::kLsh, &lsh);
  engine_->Search(query_, 5, IndexStrategy::kHybrid, &hybrid);
  EXPECT_LE(hybrid.candidates_scored,
            std::min(interval.candidates_scored, lsh.candidates_scored));
}

TEST_F(SearchEngineTest, IntervalTreeKeepsSourceTable) {
  // The query's source table must survive range pruning (no false
  // negatives from the interval tree, as the paper argues).
  QueryStats stats;
  const auto hits =
      engine_->Search(query_, static_cast<int>(lake_.size()),
                      IndexStrategy::kIntervalTree, &stats);
  bool found = false;
  for (const auto& h : hits) found = found || h.table_id == 2;
  EXPECT_TRUE(found);
}

TEST_F(SearchEngineTest, BuildStatsPopulated) {
  const auto& stats = engine_->build_stats();
  EXPECT_GT(stats.interval_memory_bytes, 0u);
  EXPECT_GT(stats.lsh_memory_bytes, 0u);
  EXPECT_GE(stats.encode_seconds, 0.0);
}

TEST_F(SearchEngineTest, EmptyQueryReturnsNothing) {
  vision::ExtractedChart empty;
  QueryStats stats;
  const auto hits = engine_->Search(empty, 5, IndexStrategy::kNoIndex,
                                    &stats);
  EXPECT_TRUE(hits.empty());
}

TEST_F(SearchEngineTest, NonPositiveKReturnsEmpty) {
  // A negative k used to wrap through size_t and return every hit.
  for (int k : {0, -1, -100}) {
    QueryStats stats;
    EXPECT_TRUE(
        engine_->Search(query_, k, IndexStrategy::kNoIndex, &stats).empty())
        << "k=" << k;
    // Pruning still ran; only the ranking is empty.
    EXPECT_EQ(stats.candidates_scored, lake_.size());
    const auto batched =
        engine_->SearchBatch({query_}, k, IndexStrategy::kNoIndex);
    ASSERT_EQ(batched.size(), 1u);
    EXPECT_TRUE(batched[0].empty()) << "k=" << k;
  }
}

// ---- Parallel vs serial equivalence ----

class ParallelSearchEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 10; ++i) {
      table::Table t;
      for (int c = 0; c < 3; ++c) {
        std::vector<double> v(60);
        for (size_t j = 0; j < v.size(); ++j) {
          v[j] = std::cos(static_cast<double>(j) * (0.04 + 0.03 * i) + c) *
                     (2.0 + i) +
                 1.5 * c;
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

    SearchEngineOptions serial_options;
    serial_options.num_threads = 1;
    serial_ = std::make_unique<SearchEngine>(model_.get(), &lake_);
    serial_->BuildWithOptions(serial_options);

    SearchEngineOptions parallel_options;
    parallel_options.num_threads = 4;
    parallel_ = std::make_unique<SearchEngine>(model_.get(), &lake_);
    parallel_->BuildWithOptions(parallel_options);

    for (int q = 0; q < 3; ++q) {
      table::DataSeries d;
      d.y = lake_.Get(q * 3).column(q % 3).values;
      const auto chart = chart::RenderLineChart({d});
      vision::MaskOracleExtractor oracle;
      queries_.push_back(oracle.Extract(chart).value());
    }
  }

  static void ExpectSameHits(const std::vector<SearchHit>& a,
                             const std::vector<SearchHit>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].table_id, b[i].table_id) << "rank " << i;
      // Bit-identical: every path runs the same stage code, so thread
      // count and batching may not move a single bit.
      EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
    }
  }

  table::DataLake lake_;
  std::unique_ptr<core::FcmModel> model_;
  std::unique_ptr<SearchEngine> serial_, parallel_;
  std::vector<vision::ExtractedChart> queries_;
};

TEST_F(ParallelSearchEngineTest, SearchIdenticalAcrossThreadCounts) {
  for (const auto strategy :
       {IndexStrategy::kNoIndex, IndexStrategy::kIntervalTree,
        IndexStrategy::kLsh, IndexStrategy::kHybrid}) {
    for (const auto& query : queries_) {
      QueryStats ss, ps;
      const auto s = serial_->Search(query, 5, strategy, &ss);
      const auto p = parallel_->Search(query, 5, strategy, &ps);
      ExpectSameHits(s, p);
      EXPECT_EQ(ss.candidates_scored, ps.candidates_scored);
    }
  }
}

TEST_F(ParallelSearchEngineTest, SearchBatchMatchesPerQuerySearch) {
  for (const auto strategy : {IndexStrategy::kNoIndex, IndexStrategy::kLsh,
                              IndexStrategy::kHybrid}) {
    std::vector<QueryStats> batch_stats;
    const auto batched =
        parallel_->SearchBatch(queries_, 4, strategy, &batch_stats);
    ASSERT_EQ(batched.size(), queries_.size());
    ASSERT_EQ(batch_stats.size(), queries_.size());
    for (size_t q = 0; q < queries_.size(); ++q) {
      QueryStats single_stats;
      const auto single =
          serial_->Search(queries_[q], 4, strategy, &single_stats);
      ExpectSameHits(single, batched[q]);
      EXPECT_EQ(batch_stats[q].candidates_scored,
                single_stats.candidates_scored);
    }
  }
}

TEST_F(ParallelSearchEngineTest, SearchBatchStatsSeparatePerQueryAndBatchTime) {
  // Regression: SearchBatch used to write the whole batch's wall time into
  // every QueryStats::seconds, over-counting per-query cost by the batch
  // size. Now `seconds` is the query's own scoring time and the shared
  // wall clock lives in `batch_seconds`.
  std::vector<QueryStats> stats;
  parallel_->SearchBatch(queries_, 4, IndexStrategy::kNoIndex, &stats);
  ASSERT_EQ(stats.size(), queries_.size());
  double sum_per_query = 0.0;
  for (size_t q = 0; q < stats.size(); ++q) {
    EXPECT_GT(stats[q].candidates_scored, 0u);
    EXPECT_GT(stats[q].seconds, 0.0);
    EXPECT_GT(stats[q].batch_seconds, 0.0);
    // Every query reports the same batch wall time.
    EXPECT_DOUBLE_EQ(stats[q].batch_seconds, stats[0].batch_seconds);
    sum_per_query += stats[q].seconds;
  }
  // Per-query seconds are aggregate CPU scoring time: their sum is bounded
  // by threads (4) * batch wall time, never queries * batch wall time (the
  // old over-count wrote the full wall time into every entry). Allow
  // generous slack for scheduling noise.
  EXPECT_LT(sum_per_query, stats[0].batch_seconds * 8);

  // Single-query Search reports its full wall time in both fields.
  QueryStats single;
  serial_->Search(queries_[0], 4, IndexStrategy::kNoIndex, &single);
  EXPECT_DOUBLE_EQ(single.seconds, single.batch_seconds);
  EXPECT_GT(single.seconds, 0.0);
}

TEST_F(ParallelSearchEngineTest, SearchBatchHandlesEmptyQueries) {
  std::vector<vision::ExtractedChart> queries = queries_;
  queries.insert(queries.begin() + 1, vision::ExtractedChart{});
  std::vector<QueryStats> stats;
  const auto results =
      parallel_->SearchBatch(queries, 3, IndexStrategy::kNoIndex, &stats);
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_TRUE(results[1].empty());
  EXPECT_EQ(stats[1].candidates_scored, 0u);
  ExpectSameHits(results[0],
                 serial_->Search(queries[0], 3, IndexStrategy::kNoIndex));
  EXPECT_TRUE(
      parallel_->SearchBatch({}, 3, IndexStrategy::kNoIndex).empty());
}

TEST_F(ParallelSearchEngineTest, RepeatedSearchIsDeterministic) {
  // Regression: candidate ids used to come back in unordered_set iteration
  // order, so equal-score hits could rank differently across runs and
  // platforms. Ask for the whole lake so the full candidate ordering —
  // not just the top few — must reproduce, run to run and across thread
  // counts, for every strategy.
  const int k = static_cast<int>(lake_.size());
  for (const auto strategy :
       {IndexStrategy::kNoIndex, IndexStrategy::kIntervalTree,
        IndexStrategy::kLsh, IndexStrategy::kHybrid}) {
    for (const auto& query : queries_) {
      const auto first = serial_->Search(query, k, strategy);
      const auto second = serial_->Search(query, k, strategy);
      ExpectSameHits(first, second);
      for (SearchEngine* engine : {serial_.get(), parallel_.get()}) {
        ExpectSameHits(first, engine->Search(query, k, strategy));
      }
    }
  }
}

TEST_F(ParallelSearchEngineTest, XDerivationBuildIdenticalAcrossThreads) {
  SearchEngineOptions base;
  base.index_x_derivations = true;
  base.x_derivation_grid = 64;

  SearchEngineOptions serial_options = base;
  serial_options.num_threads = 1;
  SearchEngine serial_engine(model_.get(), &lake_);
  serial_engine.BuildWithOptions(serial_options);

  SearchEngineOptions parallel_options = base;
  parallel_options.num_threads = 4;
  SearchEngine parallel_engine(model_.get(), &lake_);
  parallel_engine.BuildWithOptions(parallel_options);

  for (const auto& query : queries_) {
    ExpectSameHits(serial_engine.Search(query, 5, IndexStrategy::kNoIndex),
                   parallel_engine.Search(query, 5, IndexStrategy::kNoIndex));
  }
}

TEST(MeanEmbeddingTest, AveragesRows) {
  nn::Tensor rep = nn::Tensor::FromVector({2, 3}, {1, 2, 3, 3, 4, 5});
  const auto mean = SearchEngine::MeanEmbedding(rep);
  ASSERT_EQ(mean.size(), 3u);
  EXPECT_FLOAT_EQ(mean[0], 2.0f);
  EXPECT_FLOAT_EQ(mean[1], 3.0f);
  EXPECT_FLOAT_EQ(mean[2], 4.0f);
}

}  // namespace
}  // namespace fcm::index
