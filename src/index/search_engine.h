// End-to-end query processing (paper Sec. VI-A): optional interval-tree
// and LSH candidate pruning followed by FCM re-ranking of the survivors.
//
// Heavy stages fan out over a fixed thread pool: per-table encoding and
// LSH code computation at build time, LSH candidate generation and
// per-candidate scoring at query time. Parallel execution is bit-identical
// to the serial path — tables and candidates are scored independently,
// consumed in deterministic order, and candidate ids are sorted before
// scoring — so rankings (including tie order) never depend on the thread
// count or on hash-set iteration order.
//
// Live ingestion (the mutable-data-lake tentpole): a built engine is no
// longer frozen for life. IngestBatch appends new tables as immutable
// *delta segments* (an LSH index and an interval tree over just the new
// tables) and publishes a new *epoch*; Compact
// merges every segment into a fresh frozen base. Readers pin an epoch for
// the duration of a Search / SearchBatch / async request — an O(1)
// shared_ptr copy, never a lock held across query work — and retired
// epochs are destroyed when their last pinned reader drains (RCU with
// refcounts). The determinism contract is restated per epoch: any pinned
// epoch ranks bit-identically to a from-scratch build over the same
// logical tables, across thread counts, strategies, batching, and async
// coalescing; ingestion and compaction never perturb a pinned epoch's
// results (proven by tests/ingest_test.cc).

#ifndef FCM_INDEX_SEARCH_ENGINE_H_
#define FCM_INDEX_SEARCH_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/fcm_model.h"
#include "index/interval_tree.h"
#include "index/lsh.h"
#include "storage/snapshot.h"
#include "storage/span.h"
#include "table/data_lake.h"
#include "vision/extracted_chart.h"

namespace fcm::index {

/// Candidate pruning strategies compared in Table VIII.
enum class IndexStrategy { kNoIndex, kIntervalTree, kLsh, kHybrid };

const char* IndexStrategyName(IndexStrategy s);

/// Storage precision of the mean-embedding block. kInt8 stores symmetric
/// scale-per-row int8 codes (common/quantize.h) instead of f32 — about
/// 0.25x the bytes plus one f32 scale per row — and scores the
/// mean-similarity prefilter through the exact int8 SIMD kernels.
/// Candidate sets may legitimately differ from a kFloat32 engine (the
/// quantized means are what the LSH indexes and the prefilter ranks), but
/// within one precision mode the full determinism contract holds
/// unchanged. The final FCM relevance stage stays float either way.
enum class EmbeddingPrecision { kFloat32 = 0, kInt8 = 1 };

const char* EmbeddingPrecisionName(EmbeddingPrecision p);

/// One ranked search hit.
struct SearchHit {
  table::TableId table_id = table::kInvalidTableId;
  double score = 0.0;
};

/// Per-query statistics for the efficiency study.
struct QueryStats {
  size_t candidates_scored = 0;
  /// Time attributable to this query alone. Search reports the query's
  /// full wall time; SearchBatch reports the summed scoring time of the
  /// query's own candidates (its pairs may run on several workers at once,
  /// so this is aggregate CPU time, not elapsed time — and never the whole
  /// batch's wall clock, which used to over-count per-query cost).
  double seconds = 0.0;
  /// Wall time of the call that served this query: == seconds for Search,
  /// the shared whole-batch wall time for every query of a SearchBatch.
  double batch_seconds = 0.0;
};

/// Index build statistics (Table VIII's build time / memory columns).
struct BuildStats {
  double interval_build_seconds = 0.0;
  double lsh_build_seconds = 0.0;
  double encode_seconds = 0.0;
  size_t interval_memory_bytes = 0;
  size_t lsh_memory_bytes = 0;
  /// Bytes held by the serving-side mean-embedding tier: the f32 block in
  /// kFloat32 mode, the int8 code block plus its per-row f32 scale vector
  /// in kInt8 mode (the f32 block is dropped after the LSH build).
  size_t embedding_bytes = 0;
};

/// Statistics of one IngestBatch call.
struct IngestStats {
  /// Tables appended by this batch.
  size_t tables = 0;
  /// Epoch id published by this batch (monotone; the base build is 0).
  uint64_t epoch_id = 0;
  /// Delta segments alive in the published epoch (base excluded).
  size_t delta_segments = 0;
  double encode_seconds = 0.0;
  double lsh_seconds = 0.0;
  double interval_seconds = 0.0;
};

/// Statistics of one Compact call.
struct CompactStats {
  /// Segments merged (1 means compaction was a no-op: already compact).
  size_t segments_merged = 0;
  /// Epoch id published (unchanged for a no-op).
  uint64_t epoch_id = 0;
  double seconds = 0.0;
};

/// Engine construction options.
struct SearchEngineOptions {
  /// LSH settings.
  LshConfig lsh;
  /// Numerical x-axis generalization (paper Sec. VI-B): for every table,
  /// also index its T' derivations — the table re-sorted by each column
  /// treated as a candidate x axis and interpolated onto an even grid —
  /// and score a table as the max over its derivations. Off by default
  /// (the paper treats uneven numerical x axes as a rare case).
  bool index_x_derivations = false;
  /// Grid size for the derivations.
  int x_derivation_grid = 128;
  /// Worker threads for build-time encoding and query-time scoring;
  /// <= 0 uses the hardware concurrency, 1 runs fully serial.
  int num_threads = 0;
  /// Storage precision of the mean-embedding block (see
  /// EmbeddingPrecision). kInt8 quantizes when a segment is built and
  /// drops the f32 block, cutting the tier to ~0.28x of its f32 bytes.
  EmbeddingPrecision precision = EmbeddingPrecision::kFloat32;
  /// Mean-similarity prefilter: when > 0, CandidateStage keeps only the
  /// `mean_prefilter` candidates whose mean embeddings score highest
  /// against the query's line means (max over line x row dot products —
  /// f32 kernels in kFloat32 mode, the exact int8 kernels in kInt8 mode)
  /// before the expensive FCM scoring stage. 0 (default) scores every
  /// candidate, exactly the pre-prefilter behavior. Survivors are ranked
  /// (similarity desc, id asc) then re-sorted ascending, so the
  /// determinism contract is unchanged for a fixed configuration.
  int mean_prefilter = 0;
};

/// Options for SearchEngine::OpenSnapshot.
struct SnapshotOpenOptions {
  /// Worker threads for query-time scoring; <= 0 uses the hardware
  /// concurrency.
  int num_threads = 0;
  /// Serve the numeric index arrays straight out of a read-only mmap of
  /// the snapshot file (zero-copy); false reads the file onto the heap.
  bool use_mmap = true;
};

struct IndexSegment;  // Internal frozen slice; see index/index_segment.h.

/// One immutable index generation: an ordered list of frozen segments
/// (base first, deltas in ingest order) tiling table ids [0, num_tables).
/// Opaque to callers — pin one with SearchEngine::PinEpoch and pass it to
/// Search / SearchBatch / the stages to hold a consistent view across
/// concurrent ingestion and compaction. Destroying the last pin retires
/// the epoch (and any segment no newer epoch shares).
class EngineEpoch {
 public:
  ~EngineEpoch();

  /// Monotone generation number: 0 for the base build, +1 per published
  /// IngestBatch / Compact.
  uint64_t id() const { return id_; }
  /// Logical tables searchable in this epoch.
  size_t num_tables() const { return num_tables_; }
  /// Frozen segments (>= 1; 1 means compact).
  size_t num_segments() const { return segments_.size(); }

 private:
  friend class SearchEngine;
  EngineEpoch() = default;

  uint64_t id_ = 0;
  size_t num_tables_ = 0;
  std::vector<std::shared_ptr<const IndexSegment>> segments_;
};

/// A reader's hold on one epoch. Copy freely; O(1).
using EpochPin = std::shared_ptr<const EngineEpoch>;

/// Owns the per-table FCM encodings (computed once, detached) plus both
/// index structures; model and lake must outlive the engine (the lake is
/// only read during BuildWithOptions — ingested tables are encoded and
/// dropped).
///
/// Lifecycle: BuildWithOptions encodes the lake and freezes every
/// index structure into flat columnar arrays (LSH CSR buckets, interval
/// tree node arrays, one contiguous mean-embedding block), published as
/// epoch 0. IngestBatch appends delta segments and publishes new epochs;
/// Compact merges all segments back into one frozen base. SaveSnapshot
/// persists a compact epoch; OpenSnapshot serves a saved engine with the
/// numeric arrays read zero-copy out of an mmap'ed snapshot — and ranks
/// bit-identically to the engine that saved it under Search, SearchBatch,
/// and async coalescing, because both run the same query code over the
/// same frozen views.
///
/// Thread safety: all query-side methods (Search, SearchBatch, the
/// stages, PinEpoch, stats accessors) are const and safe to call
/// concurrently with each other AND with the writer-side methods
/// (IngestBatch, Compact), which serialize among themselves internally.
class SearchEngine {
 public:
  SearchEngine(const core::FcmModel* model, const table::DataLake* lake);
  ~SearchEngine();

  /// Encodes every dataset and builds the interval tree + LSH index with
  /// `options` (x-derivation indexing, thread count etc.; `{}` for the
  /// defaults).
  void BuildWithOptions(const SearchEngineOptions& options);

  // ---- Live ingestion (writer side) ----

  /// Appends `tables` to the served index as one immutable delta segment
  /// and publishes a new epoch. The tables are assigned the next dense
  /// ids (num_tables(), num_tables()+1, ...), encoded with the engine's
  /// model, indexed by a fresh LSH + interval-tree delta, and
  /// dropped — only their encodings are retained. In-flight readers keep
  /// their pinned epoch; new pins see the appended tables. Writers
  /// (IngestBatch / Compact) serialize among themselves; concurrent
  /// queries never block. Requires a built engine; an empty batch is a
  /// no-op returning OK.
  common::Status IngestBatch(std::vector<table::Table> tables,
                             IngestStats* stats = nullptr);

  /// Merges every segment of the current epoch into one fresh frozen
  /// base — the means blocks re-concatenated in table order and the LSH /
  /// interval tree rebuilt exactly as a from-scratch build over the same
  /// logical tables would, so rankings are unchanged (and SaveSnapshot
  /// works again). Encodings are shared, never recomputed. A no-op when
  /// the epoch is already compact. Publishes a new epoch; pinned readers
  /// of older epochs are unaffected.
  common::Status Compact(CompactStats* stats = nullptr);

  /// Pins the current epoch: an O(1) shared_ptr copy readers hold for at
  /// most the duration of a request. Never returns null on a built
  /// engine.
  EpochPin PinEpoch() const;

  /// Logical tables in the current epoch (== lake size until the first
  /// IngestBatch).
  size_t num_tables() const;

  /// Delta segments in the current epoch (0 when compact).
  size_t num_delta_segments() const;

  /// Current epoch id (0 after a build, +1 per published ingest/compact).
  uint64_t epoch_id() const;

  /// Persists the built engine — model weights, frozen LSH + interval
  /// tree arrays, mean-embedding block, column encodings — as one
  /// versioned, checksummed snapshot file (see storage/snapshot.h).
  /// Atomic: a crash mid-save never leaves a torn file. Requires a built
  /// engine whose current epoch is compact (call Compact() after
  /// ingesting; FailedPrecondition otherwise).
  common::Status SaveSnapshot(const std::string& path) const;

  /// Opens a snapshot for serving. The returned engine is fully
  /// self-contained (it owns the model reconstructed from the snapshot,
  /// needs no data lake) and answers every query bit-identically to the
  /// engine that saved the snapshot. LSH buckets, interval-tree arrays,
  /// hyperplanes, and mean embeddings are served zero-copy from the mmap;
  /// column-encoding tensors are materialized at open (the nn substrate
  /// owns its buffers). The opened engine accepts IngestBatch like a
  /// built one. Any corruption or version mismatch fails loudly.
  static common::Result<std::unique_ptr<SearchEngine>> OpenSnapshot(
      const std::string& path,
      const SnapshotOpenOptions& options = SnapshotOpenOptions());

  /// Top-k search with the chosen pruning strategy. `k <= 0` asks for
  /// nothing and returns an empty ranking (candidates are still pruned and
  /// counted in `stats`). `epoch`, when given, serves the query from that
  /// pinned epoch; null pins the current one for the duration of the
  /// call.
  std::vector<SearchHit> Search(const vision::ExtractedChart& query, int k,
                                IndexStrategy strategy,
                                QueryStats* stats = nullptr,
                                const EpochPin& epoch = nullptr) const;

  /// Batched top-k search: answers every query with the same semantics as
  /// Search (identical hits and scores; `k <= 0` yields empty rankings)
  /// while amortizing thread-pool dispatch across the batch — chart
  /// encoding, LSH candidate generation (one QueryBatch over every
  /// query's line embeddings), candidate scoring, and ranking each fan
  /// out once for the whole batch. `stats`, when given, receives one entry
  /// per query (per-query scoring seconds plus the shared batch_seconds;
  /// see QueryStats). One epoch — `epoch` or a fresh pin — serves the
  /// whole batch.
  std::vector<std::vector<SearchHit>> SearchBatch(
      const std::vector<vision::ExtractedChart>& queries, int k,
      IndexStrategy strategy, std::vector<QueryStats>* stats = nullptr,
      const EpochPin& epoch = nullptr) const;

  // ---- Serving stages ----
  // Search and SearchBatch are thin compositions of the three stages
  // below, and AsyncSearchService's dispatcher runs them back to back on
  // micro-batches of queued requests. Because every path goes through the
  // same stage code with per-request strategy and k, a request's ranking
  // is bit-identical however requests are grouped into stage calls.
  // Stages are const and safe to call concurrently from several threads
  // (the shared pool accepts concurrent owners). The index-consulting
  // stages take an optional pinned epoch; a caller serving one request
  // across several stage calls (the async service) passes the same pin
  // to each so the request sees one consistent index generation end to
  // end.

  /// Wall seconds one batch spent inside each serving stage, filled for
  /// callers that pass one to a stage to attribute latency to it. Purely
  /// observational — timing never changes what a stage computes.
  struct StageTiming {
    double encode_seconds = 0.0;
    double candidate_seconds = 0.0;
    double score_seconds = 0.0;
  };

  /// One request's stage state. `query` must outlive the stage calls.
  struct StagedQuery {
    const vision::ExtractedChart* query = nullptr;
    IndexStrategy strategy = IndexStrategy::kNoIndex;
    int k = 0;
    /// Caller-assigned identity carried through the stages, used only as
    /// the key of the per-query failpoint sites (common/failpoint.h) —
    /// AsyncSearchService sets it to the request id so a fault schedule
    /// can poison exactly one request of a coalesced micro-batch.
    /// Search/SearchBatch leave it 0. Never affects results.
    uint64_t tag = 0;
    core::ChartRepresentation chart_rep;           // Stage 1 output.
    std::vector<std::vector<int64_t>> line_hits;   // Stage 2, LSH probes.
    std::vector<table::TableId> candidates;        // Stage 2 output.
  };

  /// Stage 1 — chart encoding: fills chart_rep for every staged query in
  /// one pool dispatch. Queries without lines stay empty. `timing`, when
  /// given, receives the stage's wall time in encode_seconds.
  void EncodeStage(std::vector<StagedQuery>* staged,
                   StageTiming* timing = nullptr) const;

  /// Stage 2 — candidate generation: one LSH QueryBatch per
  /// segment of the pinned epoch over every staged query that consults
  /// the LSH index, then the per-query merge (sorted ids, identical to
  /// the single-query path). `timing`, when given, receives the stage's
  /// wall time in candidate_seconds.
  void CandidateStage(std::vector<StagedQuery>* staged,
                      StageTiming* timing = nullptr,
                      const EpochPin& epoch = nullptr) const;

  /// Stage 3 — scoring + ranking: one flat dispatch over all
  /// (query, candidate) pairs, then per-query top-k assembly. `stats`,
  /// when given, must be parallel to *staged and receives
  /// candidates_scored plus per-query scoring seconds (batch_seconds is
  /// left for the caller to fill). `timing`, when given, receives the
  /// stage's wall time in score_seconds.
  std::vector<std::vector<SearchHit>> ScoreStage(
      const std::vector<StagedQuery>& staged,
      std::vector<QueryStats>* stats = nullptr,
      StageTiming* timing = nullptr,
      const EpochPin& epoch = nullptr) const;

  const BuildStats& build_stats() const { return build_stats_; }

  /// Storage precision of the mean-embedding block (build option, or the
  /// value recorded in the snapshot for an opened engine).
  EmbeddingPrecision precision() const { return options_.precision; }

  /// Bytes held by the serving-side mean-embedding tier across every
  /// segment of the current epoch (see BuildStats::embedding_bytes).
  size_t embedding_bytes() const;

  /// Mean embedding of a [N, K] representation (index key derivation:
  /// "averaging all representations of segments", Sec. VI-A).
  static std::vector<float> MeanEmbedding(const nn::Tensor& rep);

 private:
  /// Candidate ids for one query under `strategy`, sorted ascending:
  /// RankHits breaks score ties by candidate position, so a sorted order
  /// is what keeps rankings reproducible across runs and platforms.
  /// `line_hits` points at `num_line_hits` per-line LSH payload lists
  /// (one per chart line, merged across the epoch's segments by
  /// CandidateStage); required — possibly empty — for the LSH and hybrid
  /// strategies, ignored otherwise.
  std::vector<table::TableId> Candidates(
      const EngineEpoch& epoch, const vision::ExtractedChart& query,
      IndexStrategy strategy, const std::vector<int64_t>* line_hits = nullptr,
      size_t num_line_hits = 0) const;

  /// Rel'(V, T) for one candidate (max over the table's derivations), or
  /// false when the table has no encodable columns.
  bool ScoreCandidate(const EngineEpoch& epoch,
                      const core::ChartRepresentation& chart_rep,
                      const vision::ExtractedChart& query, table::TableId id,
                      double* score) const;

  /// Mean-similarity prefilter (options_.mean_prefilter > 0): keeps the
  /// candidates whose mean embeddings score highest against the query's
  /// `num_lines` line means (similarity desc, id asc), re-sorted
  /// ascending. Scores via the precision mode's kernels — f32 dot, or
  /// quantize-the-query + the exact int8 GemmI8F32 — reading each
  /// candidate's rows from its owning segment. Thread-safe (called from
  /// CandidateStage's per-query fan-out).
  void PrefilterCandidates(const EngineEpoch& epoch,
                           const std::vector<float>* line_means,
                           size_t num_lines,
                           std::vector<table::TableId>* candidates) const;

  /// Encodes `tables` (global ids first_id, first_id+1, ...) into one
  /// frozen segment: entries + means block (+ int8 tier), LSH over the
  /// means in table order, interval tree. The shared construction path
  /// of BuildWithOptions and IngestBatch — a delta segment is built
  /// exactly like a base, just over fewer tables.
  std::shared_ptr<const IndexSegment> BuildSegment(
      const std::vector<table::Table>& tables, table::TableId first_id,
      double* encode_seconds, double* interval_seconds,
      double* lsh_seconds) const;

  /// Rebuilds the interval tree + LSH of `segment` from its entries and
  /// means views (segment.means arrays must already be populated).
  /// Factored out of BuildSegment for Compact, which re-slices existing
  /// encodings instead of encoding.
  void BuildSegmentIndexes(IndexSegment* segment, double* interval_seconds,
                           double* lsh_seconds) const;

  /// Atomically publishes `epoch` as the current generation.
  void PublishEpoch(std::shared_ptr<const EngineEpoch> epoch);

  const core::FcmModel* model_;
  const table::DataLake* lake_;  // Null for a snapshot-opened engine.
  SearchEngineOptions options_;
  std::unique_ptr<common::ThreadPool> pool_;
  BuildStats build_stats_;

  /// The current epoch, swapped under epoch_mu_ by writers and copied
  /// under it by PinEpoch. The lock is held only for the pointer
  /// copy/swap — never across query or build work — which is what makes
  /// reader pinning O(1) and writer publication wait-free for readers.
  mutable common::Mutex epoch_mu_;
  std::shared_ptr<const EngineEpoch> epoch_ FCM_GUARDED_BY(epoch_mu_);

  /// Serializes writers (IngestBatch / Compact) so segment construction
  /// and epoch numbering are single-writer; never held by readers.
  common::Mutex ingest_mu_;

  /// Snapshot-opened engines own their model and keep the reader (and
  /// with it the mmap every frozen view points into) alive.
  std::unique_ptr<core::FcmModel> owned_model_;
  std::unique_ptr<storage::SnapshotReader> snapshot_;
};

}  // namespace fcm::index

#endif  // FCM_INDEX_SEARCH_ENGINE_H_
