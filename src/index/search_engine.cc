#include "index/search_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_set>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/quantize.h"
#include "common/simd.h"
#include "index/index_segment.h"
#include "table/resample.h"

namespace fcm::index {

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Top-k of a score array, equal scores broken by ascending table id —
/// the candidate order — explicitly, since partial_sort is unstable and
/// would otherwise order ties differently across stdlibs. k <= 0 is an
/// empty request — without the early return the size_t cast would turn a
/// negative k into "keep everything".
std::vector<SearchHit> RankHits(std::vector<SearchHit> hits, int k) {
  if (k <= 0) return {};
  const size_t keep = std::min<size_t>(static_cast<size_t>(k), hits.size());
  std::partial_sort(hits.begin(), hits.begin() + static_cast<long>(keep),
                    hits.end(), [](const SearchHit& a, const SearchHit& b) {
                      return a.score != b.score ? a.score > b.score
                                                : a.table_id < b.table_id;
                    });
  hits.resize(keep);
  return hits;
}

/// Sorted id vector from an unordered survivor set: candidate order feeds
/// RankHits' tie-breaking, so it must not depend on hash iteration order.
std::vector<table::TableId> SortedIds(
    const std::unordered_set<table::TableId>& ids) {
  std::vector<table::TableId> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// The segment whose [first_id, end_id) range holds `id`. Segments tile
/// [0, num_tables) in ascending first_id order, so this is a plain binary
/// search over first_id.
const IndexSegment& SegmentContaining(
    const std::vector<std::shared_ptr<const IndexSegment>>& segments,
    table::TableId id) {
  size_t lo = 0, hi = segments.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (segments[mid]->first_id <= id) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return *segments[lo];
}

}  // namespace

EngineEpoch::~EngineEpoch() = default;

const char* IndexStrategyName(IndexStrategy s) {
  switch (s) {
    case IndexStrategy::kNoIndex: return "No Index";
    case IndexStrategy::kIntervalTree: return "Interval Tree";
    case IndexStrategy::kLsh: return "LSH";
    case IndexStrategy::kHybrid: return "Hybrid";
  }
  return "?";
}

const char* EmbeddingPrecisionName(EmbeddingPrecision p) {
  switch (p) {
    case EmbeddingPrecision::kFloat32: return "f32";
    case EmbeddingPrecision::kInt8: return "int8";
  }
  return "?";
}

SearchEngine::SearchEngine(const core::FcmModel* model,
                           const table::DataLake* lake)
    : model_(model), lake_(lake) {}

SearchEngine::~SearchEngine() = default;

std::vector<float> SearchEngine::MeanEmbedding(const nn::Tensor& rep) {
  const int n = rep.dim(0), k = rep.dim(1);
  std::vector<float> out(static_cast<size_t>(k), 0.0f);
  const auto& data = rep.data();
  const auto& kernels = simd::Active();
  for (int i = 0; i < n; ++i) {
    kernels.axpy_f32(1.0f, data.data() + static_cast<size_t>(i) * k,
                     out.data(), static_cast<size_t>(k));
  }
  for (auto& v : out) v /= static_cast<float>(n);
  return out;
}

std::shared_ptr<const IndexSegment> SearchEngine::BuildSegment(
    const std::vector<table::Table>& tables, table::TableId first_id,
    double* encode_seconds, double* interval_seconds,
    double* lsh_seconds) const {
  auto segment = std::make_shared<IndexSegment>();
  segment->first_id = first_id;

  // Encoding dominates build time and is embarrassingly parallel: each
  // table's encodings and mean embeddings depend only on that table, so
  // the fan-out is bit-identical to a serial loop over tables.
  const auto t_encode = std::chrono::steady_clock::now();
  const size_t n = tables.size();
  segment->entries.resize(n);
  // Per-table mean vectors land in scratch first (the parallel tasks
  // cannot append to the shared block); a serial pass then flattens them
  // into the segment's means block in table-id order.
  std::vector<std::vector<std::vector<float>>> scratch_means(n);
  pool_->ParallelFor(n, [&](size_t i) {
    const auto& t = tables[i];
    auto entry = std::make_shared<TableEntry>();
    entry->encoding = core::FcmModel::Detach(model_->EncodeDataset(t));
    auto& means = scratch_means[i];
    means.reserve(entry->encoding.size());
    for (const auto& enc : entry->encoding) {
      means.push_back(MeanEmbedding(enc.representation));
    }
    if (options_.index_x_derivations) {
      // Sec. VI-B: derive T' per candidate x column and encode each.
      for (const auto& derived : table::AllXAxisDerivations(
               t, static_cast<size_t>(options_.x_derivation_grid))) {
        auto rep = core::FcmModel::Detach(model_->EncodeDataset(derived));
        for (const auto& enc : rep) {
          means.push_back(MeanEmbedding(enc.representation));
        }
        entry->derivations.push_back(std::move(rep));
      }
    }
    entry->num_means = means.size();
    segment->entries[i] = std::move(entry);
  });
  const size_t embed_dim = static_cast<size_t>(model_->config().embed_dim);
  segment->mean_begin.resize(n);
  for (size_t i = 0; i < n; ++i) {
    segment->mean_begin[i] = segment->means_data.size() / embed_dim;
    for (const auto& mean : scratch_means[i]) {
      segment->means_data.insert(segment->means_data.end(), mean.begin(),
                                 mean.end());
    }
  }
  scratch_means.clear();
  segment->means_view = segment->means_data;
  if (options_.precision == EmbeddingPrecision::kInt8) {
    // Quantize the block row by row, then drop the f32 block: from here
    // the int8 codes + scales are the tier's only storage. The LSH build
    // below indexes the dequantized reconstructions — exactly the values
    // the tier serves (and a snapshot reloads) — so bucket membership can
    // never disagree with the served embeddings. Rows are independent, so
    // the fan-out is deterministic.
    const size_t rows =
        segment->means_data.size() / std::max<size_t>(1, embed_dim);
    segment->means_q_data.resize(segment->means_data.size());
    segment->means_scale_data.resize(rows);
    pool_->ParallelFor(rows, [&](size_t r) {
      const float* row = segment->means_data.data() + r * embed_dim;
      int8_t* codes = segment->means_q_data.data() + r * embed_dim;
      segment->means_scale_data[r] =
          common::QuantizeRow(row, embed_dim, codes);
    });
    segment->means_q_view = segment->means_q_data;
    segment->means_scale_view = segment->means_scale_data;
    segment->means_data.clear();
    segment->means_data.shrink_to_fit();
    segment->means_view = storage::Span<float>();
  }
  if (encode_seconds != nullptr) *encode_seconds += Seconds(t_encode);

  BuildSegmentIndexes(segment.get(), interval_seconds, lsh_seconds);
  return segment;
}

void SearchEngine::BuildSegmentIndexes(IndexSegment* segment,
                                       double* interval_seconds,
                                       double* lsh_seconds) const {
  // Interval tree over per-column possible ranges [min(C), sum(C)] —
  // including every derivation's intervals when enabled (Sec. VI-B (2)).
  // Consumed serially in table order so the index layout is independent
  // of the encoding schedule.
  const auto t_interval = std::chrono::steady_clock::now();
  std::vector<Interval> intervals;
  for (size_t i = 0; i < segment->entries.size(); ++i) {
    const auto id = segment->first_id + static_cast<table::TableId>(i);
    const TableEntry& entry = *segment->entries[i];
    for (const auto& enc : entry.encoding) {
      intervals.push_back({enc.range_lo, enc.range_hi, id});
    }
    for (const auto& derived : entry.derivations) {
      for (const auto& enc : derived) {
        intervals.push_back({enc.range_lo, enc.range_hi, id});
      }
    }
  }
  segment->interval_tree = std::make_unique<IntervalTree>(std::move(intervals));
  if (interval_seconds != nullptr) *interval_seconds += Seconds(t_interval);

  // LSH over the segment's mean rows (plus derivation means). Items are
  // flattened in table order, which fixes each bucket's payload order
  // whatever the schedule. Hyperplanes are a pure function of
  // (dim, LshConfig) — identical for every segment — so a query probes the
  // same buckets everywhere and the union of per-segment hits equals a
  // single merged index's hits.
  const auto t_lsh = std::chrono::steady_clock::now();
  const size_t embed_dim = static_cast<size_t>(model_->config().embed_dim);
  const float* rows = segment->means_view.data();
  std::vector<float> dequantized;
  if (options_.precision == EmbeddingPrecision::kInt8) {
    // int8 mode keeps no f32 block; reconstruct the rows the tier serves
    // for the hyperplane codes. Identical values however many times the
    // segment is (re)indexed — dequantization is pure.
    const size_t n_rows = segment->means_scale_view.size();
    dequantized.resize(n_rows * embed_dim);
    pool_->ParallelFor(n_rows, [&](size_t r) {
      common::DequantizeRow(segment->means_q_view.data() + r * embed_dim,
                            embed_dim, segment->means_scale_view[r],
                            dequantized.data() + r * embed_dim);
    });
    rows = dequantized.data();
  }
  std::vector<LshItem> items;
  for (size_t i = 0; i < segment->entries.size(); ++i) {
    const auto id = segment->first_id + static_cast<table::TableId>(i);
    const size_t num_means = segment->entries[i]->num_means;
    for (size_t m = 0; m < num_means; ++m) {
      items.push_back(
          {rows + (segment->mean_begin[i] + m) * embed_dim, id});
    }
  }
  segment->lsh = std::make_unique<RandomHyperplaneLsh>(
      model_->config().embed_dim, options_.lsh, items, pool_.get());
  if (lsh_seconds != nullptr) *lsh_seconds += Seconds(t_lsh);
}

void SearchEngine::PublishEpoch(std::shared_ptr<const EngineEpoch> epoch) {
  common::MutexLock lock(&epoch_mu_);
  epoch_ = std::move(epoch);
}

EpochPin SearchEngine::PinEpoch() const {
  common::MutexLock lock(&epoch_mu_);
  return epoch_;
}

size_t SearchEngine::num_tables() const {
  const EpochPin pin = PinEpoch();
  return pin == nullptr ? 0 : pin->num_tables();
}

size_t SearchEngine::num_delta_segments() const {
  const EpochPin pin = PinEpoch();
  return pin == nullptr || pin->num_segments() == 0
             ? 0
             : pin->num_segments() - 1;
}

uint64_t SearchEngine::epoch_id() const {
  const EpochPin pin = PinEpoch();
  return pin == nullptr ? 0 : pin->id();
}

void SearchEngine::BuildWithOptions(const SearchEngineOptions& options) {
  options_ = options;
  pool_ = std::make_unique<common::ThreadPool>(options.num_threads);
  build_stats_ = {};

  auto segment = BuildSegment(
      lake_->tables(), /*first_id=*/0, &build_stats_.encode_seconds,
      &build_stats_.interval_build_seconds, &build_stats_.lsh_build_seconds);
  build_stats_.interval_memory_bytes = segment->interval_tree->MemoryBytes();
  build_stats_.lsh_memory_bytes = segment->lsh->MemoryBytes();
  build_stats_.embedding_bytes = segment->embedding_bytes();

  std::shared_ptr<EngineEpoch> epoch(new EngineEpoch());
  epoch->id_ = 0;
  epoch->num_tables_ = segment->num_tables();
  epoch->segments_.push_back(std::move(segment));
  PublishEpoch(std::move(epoch));

  FCM_LOGS(INFO) << "SearchEngine built over " << lake_->size()
                 << " tables with " << pool_->num_threads() << " threads"
                 << " (encode " << build_stats_.encode_seconds
                 << "s, interval " << build_stats_.interval_build_seconds
                 << "s, lsh " << build_stats_.lsh_build_seconds << "s)";
}

std::vector<table::TableId> SearchEngine::Candidates(
    const EngineEpoch& epoch, const vision::ExtractedChart& query,
    IndexStrategy strategy, const std::vector<int64_t>* line_hits,
    size_t num_line_hits) const {
  if (strategy == IndexStrategy::kNoIndex) {
    // The epoch, not the lake: a snapshot-opened engine serves without
    // one, and ingested tables were dropped after encoding.
    std::vector<table::TableId> all(epoch.num_tables());
    for (size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<table::TableId>(i);
    }
    return all;
  }

  std::unordered_set<table::TableId> s1;  // Interval tree survivors.
  if (strategy == IndexStrategy::kIntervalTree ||
      strategy == IndexStrategy::kHybrid) {
    // Per-segment trees store global ids; tables are range-partitioned
    // across segments, so the union is exactly the merged tree's answer.
    for (const auto& segment : epoch.segments_) {
      for (int64_t id :
           segment->interval_tree->QueryOverlap(query.y_lo, query.y_hi)) {
        s1.insert(id);
      }
    }
    if (strategy == IndexStrategy::kIntervalTree) return SortedIds(s1);
  }

  // LSH survivors. The per-line mean embeddings were computed once per
  // stage call by CandidateStage and probed across every table there —
  // Candidates only merges the payload lists, never recomputes query-side
  // means.
  FCM_CHECK(line_hits != nullptr || num_line_hits == 0);
  std::unordered_set<table::TableId> s2;
  for (size_t l = 0; l < num_line_hits; ++l) {
    s2.insert(line_hits[l].begin(), line_hits[l].end());
  }
  if (strategy == IndexStrategy::kLsh) return SortedIds(s2);

  // Hybrid: S1 ∩ S2, walked in sorted id order so the result is ordered
  // without a trailing sort.
  std::vector<table::TableId> out;
  for (table::TableId id : SortedIds(s2)) {
    if (s1.count(id)) out.push_back(id);
  }
  return out;
}

size_t SearchEngine::embedding_bytes() const {
  const EpochPin pin = PinEpoch();
  if (pin == nullptr) return 0;
  size_t total = 0;
  for (const auto& segment : pin->segments_) {
    total += segment->embedding_bytes();
  }
  return total;
}

void SearchEngine::PrefilterCandidates(
    const EngineEpoch& epoch, const std::vector<float>* line_means,
    size_t num_lines, std::vector<table::TableId>* candidates) const {
  const size_t keep = static_cast<size_t>(options_.mean_prefilter);
  if (num_lines == 0 || candidates->size() <= keep) return;
  const size_t dim = line_means[0].size();
  const bool int8_mode = options_.precision == EmbeddingPrecision::kInt8;

  // kInt8: quantize the query-side line means once per query; candidate
  // rows are already int8, so every similarity below runs through the
  // exact integer kernels.
  std::vector<int8_t> q_codes;
  std::vector<float> q_scales;
  if (int8_mode) {
    q_codes.resize(num_lines * dim);
    q_scales.resize(num_lines);
    for (size_t l = 0; l < num_lines; ++l) {
      q_scales[l] = common::QuantizeRow(line_means[l].data(), dim,
                                        q_codes.data() + l * dim);
    }
  }

  // Max over (line, mean-row) dot products per candidate, each candidate's
  // rows read from its owning segment. A candidate with no mean rows keeps
  // -inf and sorts last (it would score as invalid downstream anyway).
  std::vector<std::pair<float, table::TableId>> scored;
  scored.reserve(candidates->size());
  std::vector<float> sims;  // GemmI8F32 scratch, reused across candidates.
  for (const table::TableId id : *candidates) {
    const IndexSegment& segment = SegmentContaining(epoch.segments_, id);
    const size_t local = static_cast<size_t>(id - segment.first_id);
    const size_t num_means = segment.entries[local]->num_means;
    const uint64_t mean_begin = segment.mean_begin[local];
    float best = -std::numeric_limits<float>::infinity();
    if (int8_mode) {
      sims.resize(num_means);
      const int8_t* rows = segment.means_q_view.data() + mean_begin * dim;
      const float* row_scales =
          segment.means_scale_view.data() + mean_begin;
      for (size_t l = 0; l < num_lines; ++l) {
        simd::GemmI8F32(q_codes.data() + l * dim, rows, dim, dim,
                        q_scales[l], row_scales, sims.data(), num_means);
        for (size_t r = 0; r < num_means; ++r) {
          best = std::max(best, sims[r]);
        }
      }
    } else {
      for (size_t r = 0; r < num_means; ++r) {
        const float* row =
            segment.means_view.data() + (mean_begin + r) * dim;
        for (size_t l = 0; l < num_lines; ++l) {
          best = std::max(best, simd::DotF32(line_means[l].data(), row, dim));
        }
      }
    }
    scored.push_back({best, id});
  }

  // Survivors: highest similarity first, ties by ascending id — fully
  // deterministic — then re-sorted ascending to preserve the Candidates()
  // ordering contract RankHits' tie-breaking relies on.
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(keep),
                    scored.end(), [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  candidates->resize(keep);
  for (size_t i = 0; i < keep; ++i) (*candidates)[i] = scored[i].second;
  std::sort(candidates->begin(), candidates->end());
}

bool SearchEngine::ScoreCandidate(const EngineEpoch& epoch,
                                  const core::ChartRepresentation& chart_rep,
                                  const vision::ExtractedChart& query,
                                  table::TableId id, double* score) const {
  const IndexSegment& segment = SegmentContaining(epoch.segments_, id);
  const TableEntry& entry =
      *segment.entries[static_cast<size_t>(id - segment.first_id)];
  if (entry.encoding.empty()) return false;
  double s =
      model_->ScoreEncoded(chart_rep, entry.encoding, query.y_lo, query.y_hi);
  // Sec. VI-B (1): a table's score is the max over its derivations.
  for (const auto& derived : entry.derivations) {
    if (derived.empty()) continue;
    s = std::max(s, model_->ScoreEncoded(chart_rep, derived, query.y_lo,
                                         query.y_hi));
  }
  *score = s;
  return true;
}

void SearchEngine::EncodeStage(std::vector<StagedQuery>* staged,
                               StageTiming* timing) const {
  FCM_CHECK(pool_ != nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  FCM_FAILPOINT("engine.encode_stage");
  pool_->ParallelFor(staged->size(), [&](size_t i) {
    StagedQuery& sq = (*staged)[i];
    FCM_FAILPOINT_KEYED("engine.encode_query", sq.tag);
    if (sq.query->lines.empty()) return;
    sq.chart_rep = core::FcmModel::Detach(model_->EncodeChart(*sq.query));
  });
  if (timing != nullptr) timing->encode_seconds = Seconds(t0);
}

void SearchEngine::CandidateStage(std::vector<StagedQuery>* staged,
                                  StageTiming* timing,
                                  const EpochPin& epoch) const {
  const auto t_stage = std::chrono::steady_clock::now();
  FCM_FAILPOINT("engine.candidate_stage");
  const EpochPin pin = epoch != nullptr ? epoch : PinEpoch();
  FCM_CHECK(pin != nullptr);
  const auto uses_lsh = [](IndexStrategy s) {
    return s == IndexStrategy::kLsh || s == IndexStrategy::kHybrid;
  };
  const bool prefilter_on = options_.mean_prefilter > 0;
  // Per-query line mean embeddings feed two consumers — the LSH
  // QueryBatch and the mean-similarity prefilter — so compute each needed
  // query's means once, flattened in query order.
  std::vector<size_t> line_offset(staged->size(), 0);
  size_t total_lines = 0;
  for (size_t i = 0; i < staged->size(); ++i) {
    line_offset[i] = total_lines;
    if (uses_lsh((*staged)[i].strategy) || prefilter_on) {
      total_lines += (*staged)[i].chart_rep.size();
    }
  }
  std::vector<std::vector<float>> means(total_lines);
  if (total_lines > 0) {
    pool_->ParallelFor(staged->size(), [&](size_t i) {
      const StagedQuery& sq = (*staged)[i];
      if (!uses_lsh(sq.strategy) && !prefilter_on) return;
      for (size_t l = 0; l < sq.chart_rep.size(); ++l) {
        means[line_offset[i] + l] = MeanEmbedding(sq.chart_rep[l].representation);
      }
    });
    // One QueryBatch over every LSH-consulting query's lines,
    // whatever mix of strategies the stage call carries. Prefilter-only
    // queries must not probe the index, so their means are skipped here
    // (moved when the prefilter no longer needs them).
    std::vector<std::vector<float>> lsh_means;
    std::vector<size_t> lsh_offset(staged->size(), 0);
    for (size_t i = 0; i < staged->size(); ++i) {
      lsh_offset[i] = lsh_means.size();
      const StagedQuery& sq = (*staged)[i];
      if (!uses_lsh(sq.strategy)) continue;
      for (size_t l = 0; l < sq.chart_rep.size(); ++l) {
        auto& mean = means[line_offset[i] + l];
        lsh_means.push_back(prefilter_on ? mean : std::move(mean));
      }
    }
    if (!lsh_means.empty()) {
      // One QueryBatch per segment of the pinned epoch, per-line payload
      // lists concatenated across segments. Segments hold disjoint id
      // ranges and Candidates() set-merges the lists, so concatenation
      // order cannot affect results — the union equals what one merged
      // index would return (identical hyperplanes ⇒ identical buckets).
      std::vector<std::vector<int64_t>> hits;
      for (const auto& segment : pin->segments_) {
        auto seg_hits = segment->lsh->QueryBatch(lsh_means, pool_.get());
        if (hits.empty()) {
          hits = std::move(seg_hits);
          continue;
        }
        for (size_t j = 0; j < hits.size(); ++j) {
          hits[j].insert(hits[j].end(), seg_hits[j].begin(),
                         seg_hits[j].end());
        }
      }
      for (size_t i = 0; i < staged->size(); ++i) {
        StagedQuery& sq = (*staged)[i];
        if (!uses_lsh(sq.strategy)) continue;
        sq.line_hits.assign(
            std::make_move_iterator(hits.begin() +
                                    static_cast<long>(lsh_offset[i])),
            std::make_move_iterator(hits.begin() +
                                    static_cast<long>(lsh_offset[i] +
                                                      sq.chart_rep.size())));
      }
    }
  }
  pool_->ParallelFor(staged->size(), [&](size_t i) {
    StagedQuery& sq = (*staged)[i];
    if (sq.query->lines.empty()) return;  // No candidates, empty ranking.
    sq.candidates = Candidates(*pin, *sq.query, sq.strategy,
                               sq.line_hits.data(), sq.line_hits.size());
    if (prefilter_on) {
      PrefilterCandidates(*pin, means.data() + line_offset[i],
                          sq.chart_rep.size(), &sq.candidates);
    }
  });
  if (timing != nullptr) timing->candidate_seconds = Seconds(t_stage);
}

std::vector<std::vector<SearchHit>> SearchEngine::ScoreStage(
    const std::vector<StagedQuery>& staged, std::vector<QueryStats>* stats,
    StageTiming* timing, const EpochPin& epoch) const {
  const auto t_stage = std::chrono::steady_clock::now();
  FCM_FAILPOINT("engine.score_stage");
  const EpochPin pin = epoch != nullptr ? epoch : PinEpoch();
  FCM_CHECK(pin != nullptr);
  const size_t q = staged.size();
  std::vector<std::vector<SearchHit>> results(q);
  if (stats != nullptr) stats->assign(q, {});
  if (q == 0) return results;

  // Score all (query, candidate) pairs through one flat dispatch, which
  // keeps every worker busy even when individual candidate sets are small
  // — the heavy-traffic serving shape. Slots keep candidate order so each
  // ranking (including tie order) matches the serial loop exactly.
  std::vector<size_t> offset(q, 0);
  size_t total = 0;
  for (size_t i = 0; i < q; ++i) {
    offset[i] = total;
    total += staged[i].candidates.size();
  }
  std::vector<double> scores(total);
  std::vector<char> valid(total, 0);
  std::vector<size_t> pair_query(total);
  for (size_t i = 0; i < q; ++i) {
    for (size_t c = 0; c < staged[i].candidates.size(); ++c) {
      pair_query[offset[i] + c] = i;
    }
  }
  // Per-pair durations (only when stats are requested) let each query's
  // scoring cost be reported individually even though its pairs interleave
  // with the whole batch across workers.
  std::vector<double> pair_seconds(stats != nullptr ? total : 0, 0.0);
  pool_->ParallelFor(total, [&](size_t p) {
    const StagedQuery& sq = staged[pair_query[p]];
    const table::TableId id = sq.candidates[p - offset[pair_query[p]]];
    const auto t0 = std::chrono::steady_clock::now();
    valid[p] =
        ScoreCandidate(*pin, sq.chart_rep, *sq.query, id, &scores[p]) ? 1 : 0;
    if (stats != nullptr) pair_seconds[p] = Seconds(t0);
  });

  pool_->ParallelFor(q, [&](size_t i) {
    const StagedQuery& sq = staged[i];
    // Keyed per-query site: poisons one request's scoring even when its
    // pairs interleaved with the whole batch in the flat dispatch above.
    FCM_FAILPOINT_KEYED("engine.score_query", sq.tag);
    std::vector<SearchHit> hits;
    hits.reserve(sq.candidates.size());
    for (size_t c = 0; c < sq.candidates.size(); ++c) {
      const size_t p = offset[i] + c;
      if (valid[p]) hits.push_back({sq.candidates[c], scores[p]});
    }
    if (stats != nullptr) {
      (*stats)[i].candidates_scored = hits.size();
      double secs = 0.0;
      for (size_t c = 0; c < sq.candidates.size(); ++c) {
        secs += pair_seconds[offset[i] + c];
      }
      (*stats)[i].seconds = secs;
    }
    results[i] = RankHits(std::move(hits), sq.k);
  });
  if (timing != nullptr) timing->score_seconds = Seconds(t_stage);
  return results;
}

std::vector<SearchHit> SearchEngine::Search(
    const vision::ExtractedChart& query, int k, IndexStrategy strategy,
    QueryStats* stats, const EpochPin& epoch) const {
  // Pin one epoch up front so the candidate and scoring stages see one
  // consistent index generation however ingestion interleaves.
  const EpochPin pin = epoch != nullptr ? epoch : PinEpoch();
  FCM_CHECK(pin != nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  if (query.lines.empty()) {
    if (stats != nullptr) {
      *stats = {};
      stats->seconds = stats->batch_seconds = Seconds(t0);
    }
    return {};
  }
  std::vector<StagedQuery> staged(1);
  staged[0].query = &query;
  staged[0].strategy = strategy;
  staged[0].k = k;
  EncodeStage(&staged);
  CandidateStage(&staged, nullptr, pin);
  std::vector<QueryStats> stage_stats;
  auto results = ScoreStage(staged, stats != nullptr ? &stage_stats : nullptr,
                            nullptr, pin);
  if (stats != nullptr) {
    *stats = stage_stats[0];
    // A single-query call's whole wall time is that query's true cost.
    stats->seconds = stats->batch_seconds = Seconds(t0);
  }
  return std::move(results[0]);
}

std::vector<std::vector<SearchHit>> SearchEngine::SearchBatch(
    const std::vector<vision::ExtractedChart>& queries, int k,
    IndexStrategy strategy, std::vector<QueryStats>* stats,
    const EpochPin& epoch) const {
  const EpochPin pin = epoch != nullptr ? epoch : PinEpoch();
  FCM_CHECK(pin != nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  const size_t q = queries.size();
  if (stats != nullptr) stats->assign(q, {});
  if (q == 0) return {};

  std::vector<StagedQuery> staged(q);
  for (size_t i = 0; i < q; ++i) {
    staged[i].query = &queries[i];
    staged[i].strategy = strategy;
    staged[i].k = k;
  }
  EncodeStage(&staged);
  CandidateStage(&staged, nullptr, pin);
  auto results = ScoreStage(staged, stats, nullptr, pin);
  if (stats != nullptr) {
    // Per-query `seconds` (scoring attribution) came from ScoreStage; the
    // shared wall clock lands in batch_seconds only, so the efficiency
    // study no longer charges the whole batch to every query.
    const double elapsed = Seconds(t0);
    for (auto& s : *stats) s.batch_seconds = elapsed;
  }
  return results;
}

}  // namespace fcm::index
