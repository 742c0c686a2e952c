// perfbench: the repo benchmark. Three workloads drive the serving path
// from a rendered chart image to ranked hits — ClassicalExtractor::Extract,
// then the SearchEngine stages (chart encoding, interval-tree / LSH /
// prefilter pruning, HCMAN scoring, top-k) — and report end-to-end metrics
// from an untraced run or per-layer metrics from a traced one. Spans are
// recorded here, around the public calls into each layer; the library
// itself is not instrumented. perfbench/METRICS.md lists every metric,
// the layer it belongs to, and the end-to-end metric it should move.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chart/renderer.h"
#include "common/rng.h"
#include "core/fcm_model.h"
#include "index/async_service.h"
#include "index/search_engine.h"
#include "table/data_lake.h"
#include "vision/classical_extractor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Hits = std::vector<fcm::index::SearchHit>;
using fcm::index::IndexStrategy;
using fcm::index::SearchEngine;

/// Ranked hits per query, as a user of the search sees them.
inline constexpr int kTopK = 10;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for traces, snapshot files and run records.
  std::string out_dir = ".";
};

// ---- Inputs (inputs.cc) ----

/// One query chart: the rendered pixels the measured path extracts, plus
/// the extraction done once at generation time for reference rankings.
struct ChartCase {
  fcm::chart::RenderedChart rendered;
  fcm::vision::ExtractedChart extracted;
};

/// `n` tables of 3-6 benchgen::GenerateSeries columns, 96-320 rows each.
std::vector<fcm::table::Table> GenerateTables(size_t n, fcm::common::Rng* rng);

/// `n` charts of 1-4 lines (in equal shares), each line a column of one of
/// `sources`, rendered with chart::RenderLineChart. Charts the classical
/// extractor cannot read are redrawn (counted in *rejected), so the
/// measured path never fails on its inputs.
std::vector<ChartCase> GenerateCharts(
    const std::vector<fcm::table::Table>& sources, size_t n,
    fcm::common::Rng* rng, size_t* rejected);

fcm::table::DataLake MakeLake(const std::vector<fcm::table::Table>& tables);

/// A seeded visiting order over `n` charts.
std::vector<size_t> ChartOrder(size_t n, fcm::common::Rng* rng);

// ---- Tracing (trace.cc) ----

/// One recorded span. `items` counts the work the call did (pairs scored,
/// tables encoded) so ratios are taken where the work happens.
struct Span {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  int parent = -1;
  uint64_t request = 0;
  uint64_t epoch = 0;
  uint64_t items = 0;
};

/// Per-name aggregate of span self times.
struct LayerTime {
  uint64_t count = 0;
  uint64_t items = 0;
  double self_ms = 0.0;  // Summed.
  double MeanMs() const { return count ? self_ms / count : 0.0; }
};

/// In-memory span store, written out once when the run ends. Thread-safe.
class Tracer {
 public:
  int Open(const char* name, int parent, uint64_t request, uint64_t epoch,
           Clock::time_point start);
  void Close(int id, Clock::time_point end, uint64_t items);
  /// Self time of every span (duration minus the union of its children),
  /// summed per name.
  std::map<std::string, LayerTime> SelfTimes() const;
  /// One JSON object per line: name, start_us/end_us (from the first span),
  /// parent, request, epoch, items.
  bool Write(const std::string& path) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op (untraced run or window).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int parent = -1,
            uint64_t request = 0, uint64_t epoch = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }
  void set_items(uint64_t items) { items_ = items; }

 private:
  Tracer* tracer_;
  int id_ = -1;
  uint64_t items_ = 0;
};

// ---- Run report (report.cc) ----

/// Latency distribution summary. `tail` is p99, or the highest percentile
/// that still has at least ten samples beyond it (`tail_pct` says which).
struct Percentiles {
  size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};
Percentiles Summarize(std::vector<double> values);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Peak resident set of this process so far (VmHWM), in MB.
double PeakRssMb();
/// CPU time consumed by every thread of this process, in ms.
double ProcessCpuMs();
/// Worker threads engines use (num_threads = 0 resolves to this).
int EngineThreads();
/// Ticks every CPU has spent so far, and the share of them the hypervisor
/// gave to other guests (steal), from /proc/stat.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
CpuTicks ReadCpuTicks();

/// Collects the result line, the run record, and failure accounting.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Run-record fields, printed as one JSON line before the result.
  void Record(const std::string& key, double value);
  void Record(const std::string& key, const std::string& value);
  void RecordPercentiles(const std::string& prefix, const Percentiles& p);

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation (error, refusal, wrong ranking) and
  /// explains the first few on stderr.
  void Fail(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  std::string RecordLine() const;
  std::string ResultLine() const;

 private:
  std::vector<std::pair<std::string, std::string>> metrics_;  // name -> json
  std::vector<std::pair<std::string, std::string>> record_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Records machine identity, engine threads and flags in the run record.
void RecordMachine(const Flags& flags, Report* report);

/// Traced runs alternate untraced and traced windows of 0.5 s through the
/// measured phase, so tracing overhead is measured within one run. True
/// when `offset_s` into the phase falls in a traced window.
bool InTracedWindow(double offset_s);

// ---- Serving helpers shared by the workloads (serving.cc) ----

bool SameHits(const Hits& a, const Hits& b);

/// Runs the extractor on the chart's pixels under an Extract span.
fcm::common::Result<fcm::vision::ExtractedChart> ExtractChart(
    const ChartCase& chart, Tracer* tracer, int parent, uint64_t request);

/// Serial SearchEngine::Search per chart against one pinned epoch.
std::vector<Hits> ReferenceRankings(const SearchEngine& engine,
                                    const std::vector<ChartCase>& charts,
                                    IndexStrategy strategy,
                                    const fcm::index::EpochPin& pin);

/// SearchEngine::Search spelled out as its three public stage calls, each
/// under its own span (children of a Search span), so a traced request
/// shows where its time went. Same hits as Search by construction.
Hits TracedSearch(const SearchEngine& engine,
                  const fcm::vision::ExtractedChart& query,
                  IndexStrategy strategy, const fcm::index::EpochPin& pin,
                  Tracer* tracer, int parent, uint64_t request);

/// Stage spans at a fixed micro-batch size: `calls` batches of `batch`
/// charts through EncodeStage / CandidateStage / ScoreStage, the way the
/// async pipeline runs them, on one pinned epoch.
void CalibrateStages(const SearchEngine& engine,
                     const std::vector<ChartCase>& charts,
                     IndexStrategy strategy, size_t batch, int calls,
                     Tracer* tracer);

/// Exact pruning-funnel counts per query, averaged over the charts.
struct FunnelCounts {
  double lake = 0.0;
  double interval = 0.0;  // Interval-tree survivors.
  double lsh = 0.0;       // Interval-tree ∩ LSH survivors.
  double scored = 0.0;    // Candidates the served strategy scores.
  /// Share of the exhaustive top-k that survives the served pruning
  /// (equal to recall@k of the served ranking, since scoring is exact).
  double candidate_recall = 0.0;
};
/// `plain` serves the same tables without the mean prefilter (it may be
/// `serving` itself); it gives the interval and LSH counts the prefilter
/// would otherwise cap. The recall is taken over the first
/// exhaustive.size() charts.
FunnelCounts CountFunnel(const SearchEngine& serving,
                         const fcm::index::EpochPin& serving_pin,
                         const SearchEngine& plain,
                         const fcm::index::EpochPin& plain_pin,
                         const std::vector<ChartCase>& charts,
                         IndexStrategy served,
                         const std::vector<Hits>& exhaustive);

/// Single-threaded model costs on sampled charts x tables, recorded as
/// FcmModel::ScoreEncoded / FcmModel::EncodeDataset spans.
void MeasureCore(const fcm::core::FcmModel& model,
                 const std::vector<ChartCase>& charts,
                 const std::vector<fcm::table::Table>& tables,
                 Tracer* tracer);

/// Open-loop (or saturating) client of an AsyncSearchService: a generator
/// thread extracts each chart and submits it at its scheduled time; a
/// collector thread waits for the futures in order. Latency runs from the
/// scheduled send, so generator stalls count against it.
struct OpenLoopConfig {
  double rate_qps = 100.0;
  double seconds = 1.0;
  IndexStrategy strategy = IndexStrategy::kHybrid;
  /// Ignore the schedule and keep the service queue full (kBlock
  /// backpressure paces the generator); measures throughput.
  bool saturate = false;
  /// Trace only InTracedWindow() sends; false traces every send. Either
  /// way only when a tracer is given.
  bool alternate_trace = true;
};

struct Response {
  size_t chart = 0;
  double latency_ms = 0.0;
  bool completed_in_window = false;
  bool traced = false;
  bool ok = false;
  bool extract_failed = false;
  std::string error;
  uint64_t tables_at_submit = 0;
  uint64_t tables_at_done = 0;
  size_t segments_at_submit = 0;
  Hits hits;
};

struct OpenLoopResult {
  std::vector<Response> responses;
  double window_s = 0.0;
  /// From the first scheduled send to the last completion.
  double elapsed_s = 0.0;
  /// How late the generator started each send, relative to its schedule.
  std::vector<double> lateness_ms;
  double cpu_ms = 0.0;
  fcm::index::AsyncServiceStats stats;
};

OpenLoopResult RunOpenLoop(fcm::index::AsyncSearchService* service,
                           const SearchEngine& engine,
                           const std::vector<ChartCase>& charts,
                           const std::vector<size_t>& order,
                           const OpenLoopConfig& config, Tracer* tracer);

/// Appends one batch through `ingest` and returns the ms from the call
/// until a fresh pin of `engine` sees the new tables (-1 on failure).
template <typename IngestFn>
double IngestVisibleMs(IngestFn&& ingest, const SearchEngine& engine,
                       std::vector<fcm::table::Table> batch,
                       fcm::index::IngestStats* stats, std::string* error) {
  const uint64_t target = engine.num_tables() + batch.size();
  const auto t0 = Clock::now();
  const fcm::common::Status status = ingest(std::move(batch), stats);
  if (!status.ok()) {
    *error = status.ToString();
    return -1.0;
  }
  // Ingest publishes before it returns, so one fresh pin must see the
  // tables; anything else is a failed ingest.
  if (engine.PinEpoch()->num_tables() < target) {
    *error = "ingested tables not visible to a fresh pin";
    return -1.0;
  }
  return MsBetween(t0, Clock::now());
}

/// Ingests 8 seeded batches of 32 tables one by one into an idle engine,
/// then compacts: the ingest_visible_ms and ingest.* figures of scan and
/// funnel.
struct IngestFacts {
  std::vector<double> visible_ms;
  double encode_ms = 0.0;    // Mean per batch, from IngestStats.
  double lsh_ms = 0.0;
  double interval_ms = 0.0;
  uint64_t compactions = 0;
  double segments_per_query = 1.0;
};
IngestFacts IngestProbe(SearchEngine* engine, fcm::common::Rng* rng,
                        Tracer* tracer, Report* report);

/// Saves the engine's (compact) epoch and reopens it, under
/// SaveSnapshot / OpenSnapshot spans; the reopened engine must rank a
/// sample of charts exactly like the saved one.
struct StorageFacts {
  double save_ms = 0.0;
  double open_ms = 0.0;
  double snapshot_bytes = 0.0;
};
StorageFacts StorageProbe(const SearchEngine& engine, const std::string& path,
                          const std::vector<ChartCase>& charts,
                          IndexStrategy strategy, Tracer* tracer,
                          Report* report);

/// Everything the per-layer metrics need beyond the spans.
struct LayerFacts {
  int threads = 1;
  FunnelCounts funnel;
  double extract_fail = 0.0;
  double cpu_ms_per_query = 0.0;
  double avg_batch = 0.0;
  double max_coalesced = 0.0;
  double retried = 0.0;
  double generator_late_ms = 0.0;
  IngestFacts ingest;
  StorageFacts storage;
  double embedding_bytes = 0.0;
  /// Latency of the measured phase's untraced and traced requests.
  Percentiles untraced;
  Percentiles traced;
};

/// Copies the service's batching counters and the generator's lateness.
void NoteAsync(const OpenLoopResult& result, LayerFacts* facts);

/// Derives every per-layer metric from span self times plus `facts`.
void EmitLayerMetrics(const Tracer& tracer, const LayerFacts& facts,
                      Report* report);

/// Writes the trace file and records its path and span count.
void WriteTrace(const Tracer& tracer, const Flags& flags, Report* report);

fcm::index::SearchEngineOptions EngineOptions();

/// Builds an engine over `lake` kSetupRepeats times, appending each
/// build's seconds to *setup_s, and returns the last one.
std::unique_ptr<SearchEngine> BuildRepeated(
    const fcm::core::FcmModel& model, const fcm::table::DataLake& lake,
    const fcm::index::SearchEngineOptions& options,
    std::vector<double>* setup_s);

// ---- Workloads ----
void RunScan(const Flags& flags, Report* report);
void RunFunnel(const Flags& flags, Report* report);
void RunIngestMix(const Flags& flags, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
