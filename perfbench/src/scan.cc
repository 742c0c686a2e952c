// scan: one closed-loop client calling synchronous Search(kNoIndex) on an
// f32 engine that was built, saved, and reopened from its snapshot (mmap).
// Every query scores the whole lake, so HCMAN scoring is nearly all of the
// latency: a scoring change shows here in full, while extraction, pruning
// and queueing changes should leave it unchanged.

#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

constexpr size_t kTables = 300;
constexpr size_t kCharts = 64;
/// The async probe (traced runs only) sends each chart once at this rate.
constexpr double kProbeRateQps = 20.0;

}  // namespace

void RunScan(const Flags& flags, Report* report) {
  fcm::common::Rng rng(flags.seed);
  fcm::common::Rng table_rng = rng.Fork();
  fcm::common::Rng chart_rng = rng.Fork();
  fcm::common::Rng order_rng = rng.Fork();
  fcm::common::Rng probe_rng = rng.Fork();
  const auto tables = GenerateTables(kTables, &table_rng);
  const auto lake = MakeLake(tables);
  size_t rejected = 0;
  const auto charts = GenerateCharts(tables, kCharts, &chart_rng, &rejected);
  const auto order = ChartOrder(charts.size(), &order_rng);
  const fcm::core::FcmModel model{fcm::core::FcmConfig{}};
  Tracer tracer;
  Tracer* const traced = flags.trace ? &tracer : nullptr;

  // Set-up, repeated: build, save the snapshot, reopen it with mmap. The
  // last reopened engine serves.
  const std::string path =
      flags.out_dir + "/scan-" + std::to_string(flags.seed) + ".snap";
  std::vector<double> setup_s;
  std::unique_ptr<SearchEngine> engine;
  for (int r = 0; r < kSetupRepeats; ++r) {
    engine.reset();
    const auto t0 = Clock::now();
    SearchEngine built(&model, &lake);
    built.BuildWithOptions(EngineOptions());
    fcm::common::Status saved;
    {
      SpanScope span(traced, "SearchEngine::SaveSnapshot");
      saved = built.SaveSnapshot(path);
    }
    if (!saved.ok()) {
      report->Fail("save snapshot: " + saved.ToString());
      return;
    }
    {
      SpanScope span(traced, "SearchEngine::OpenSnapshot");
      auto opened = SearchEngine::OpenSnapshot(path);
      if (!opened.ok()) {
        report->Fail("open snapshot: " + opened.status().ToString());
        return;
      }
      engine = std::move(opened).value();
    }
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  const double snapshot_bytes = static_cast<double>(
      std::ifstream(path, std::ios::binary | std::ios::ate).tellg());
  std::remove(path.c_str());

  const auto pin = engine->PinEpoch();
  const auto refs = ReferenceRankings(*engine, charts, IndexStrategy::kNoIndex,
                                      pin);

  // Measured phase: closed loop, chart pixels to ranked hits.
  std::vector<double> untraced_ms, traced_ms;
  uint64_t served = 0;
  double extract_fail = 0.0;
  const double cpu0 = ProcessCpuMs();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(flags.seconds));
  for (uint64_t i = 0;; ++i) {
    const auto t0 = Clock::now();
    if (t0 >= end) break;
    const double offset_s = std::chrono::duration<double>(t0 - start).count();
    Tracer* const t =
        traced != nullptr && InTracedWindow(offset_s) ? traced : nullptr;
    const size_t c = order[i % order.size()];
    const uint64_t request = i + 1;
    report->Attempt();
    const int root =
        t != nullptr ? t->Open("request", -1, request, pin->id(), t0) : -1;
    auto extracted = ExtractChart(charts[c], t, root, request);
    Hits hits;
    if (extracted.ok()) {
      hits = t != nullptr
                 ? TracedSearch(*engine, extracted.value(),
                                IndexStrategy::kNoIndex, pin, t, root, request)
                 : engine->Search(extracted.value(), kTopK,
                                  IndexStrategy::kNoIndex);
    }
    const auto t1 = Clock::now();
    if (t != nullptr) t->Close(root, t1, 1);
    if (!extracted.ok()) {
      ++extract_fail;
      report->Fail("extract: " + extracted.status().ToString());
      continue;
    }
    (t != nullptr ? traced_ms : untraced_ms).push_back(MsBetween(t0, t1));
    if (!SameHits(hits, refs[c])) {
      report->Fail("scan: chart " + std::to_string(c) +
                   " ranked differently from its reference");
      continue;
    }
    ++served;
  }
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  const double cpu_ms = ProcessCpuMs() - cpu0;
  const double peak_rss_mb = PeakRssMb();

  LayerFacts facts;
  if (flags.trace) {
    facts.threads = EngineThreads();
    facts.extract_fail = extract_fail;
    facts.funnel = CountFunnel(*engine, pin, *engine, pin, charts,
                               IndexStrategy::kNoIndex, refs);
    MeasureCore(model, charts, tables, traced);
    // scan serves synchronously; a short probe sends each chart once
    // through the async service so its layer has figures here too.
    const SearchEngine* serving = engine.get();
    fcm::index::AsyncSearchService service(serving);
    OpenLoopConfig probe;
    probe.rate_qps = kProbeRateQps;
    probe.seconds = static_cast<double>(charts.size()) / kProbeRateQps;
    probe.strategy = IndexStrategy::kNoIndex;
    probe.alternate_trace = false;
    const OpenLoopResult result =
        RunOpenLoop(&service, *engine, charts, order, probe, traced);
    for (const Response& r : result.responses) {
      report->Attempt();
      if (!r.ok || !SameHits(r.hits, refs[r.chart])) {
        report->Fail("scan async probe: " +
                     (r.ok ? std::string("wrong ranking") : r.error));
      }
    }
    NoteAsync(result, &facts);
    facts.cpu_ms_per_query = cpu_ms / std::max<double>(1.0, served);
    facts.storage.snapshot_bytes = snapshot_bytes;
    facts.embedding_bytes = static_cast<double>(engine->embedding_bytes());
    facts.untraced = Summarize(untraced_ms);
    facts.traced = Summarize(traced_ms);
  }

  facts.ingest = IngestProbe(engine.get(), &probe_rng, traced, report);

  const Percentiles latency = Summarize(untraced_ms);
  report->Record("lake_tables", static_cast<double>(kTables));
  report->Record("query_charts", static_cast<double>(charts.size()));
  report->Record("charts_rejected", static_cast<double>(rejected));
  report->Record("setup_repeats", static_cast<double>(kSetupRepeats));
  report->Record("strategy", "kNoIndex");
  report->Record("precision", "f32");
  report->Record("clients", 1.0);
  report->Record("elapsed_s", elapsed_s);
  report->Record("served", static_cast<double>(served));
  report->RecordPercentiles("latency", latency);
  if (flags.trace) {
    report->RecordPercentiles("latency_traced", facts.traced);
    EmitLayerMetrics(tracer, facts, report);
    WriteTrace(tracer, flags, report);
    return;
  }
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("qps", static_cast<double>(served) / elapsed_s, "1/s");
  report->Metric("p50_ms", latency.p50, "ms");
  report->Metric("p99_ms", latency.tail, "ms");
  report->Metric("ingest_visible_ms", Median(facts.ingest.visible_ms), "ms");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");
}

}  // namespace perfbench
