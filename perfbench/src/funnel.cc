// funnel: one generator thread sends AsyncSearchService::Submit(kHybrid)
// open loop at a fixed rate near half of saturation; a second pass keeps
// the service queue full to measure throughput. f32 engine over ~1000
// tables with short LSH codes and a 32-candidate mean prefilter, so time
// spreads across extraction, encoding, the interval tree ∩ LSH, the
// prefilter, scoring and coalescing: pruning, extraction and queueing
// changes show here and not on scan.
//
// Why the prefilter: on the untrained model LSH survivor counts are
// bimodal (at 16-bit codes over half the charts keep no candidate and a
// tenth keep hundreds), so no code length alone gives tens of candidates.
// 8-bit codes let the LSH step prune a little for most charts and a lot
// for some; the prefilter then caps scoring at 32 pairs.

#include <cmath>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

constexpr size_t kTables = 1000;
constexpr size_t kCharts = 256;
/// Charts whose exhaustive ranking the traced run computes for
/// index.funnel.candidate_recall.
constexpr size_t kRecallCharts = 32;
constexpr int kLshBits = 8;
constexpr int kPrefilter = 32;
/// About a third of the saturating pass's rate on the reference host, so
/// the host's speed swings stay clear of the queueing knee.
constexpr double kOpenRateQps = 100.0;
/// Share of the run the open-loop pass gets; the saturating pass has the
/// rest.
constexpr double kOpenShare = 0.7;
constexpr int kCalibrationCalls = 40;

}  // namespace

void RunFunnel(const Flags& flags, Report* report) {
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

  fcm::index::SearchEngineOptions options = EngineOptions();
  options.lsh.num_bits = kLshBits;
  options.mean_prefilter = kPrefilter;
  std::vector<double> setup_s;
  const std::unique_ptr<SearchEngine> engine =
      BuildRepeated(model, lake, options, &setup_s);

  const auto pin = engine->PinEpoch();
  const auto refs =
      ReferenceRankings(*engine, charts, IndexStrategy::kHybrid, pin);

  // Pass 1: open loop at the fixed rate (latency). Pass 2: saturating
  // (throughput). Each pass gets a fresh service so its stats are its own.
  const SearchEngine* serving = engine.get();
  OpenLoopConfig config;
  config.rate_qps = kOpenRateQps;
  config.seconds = flags.seconds * kOpenShare;
  config.strategy = IndexStrategy::kHybrid;
  OpenLoopResult open;
  {
    fcm::index::AsyncSearchService service(serving);
    open = RunOpenLoop(&service, *engine, charts, order, config, traced);
  }
  config.saturate = true;
  config.seconds = flags.seconds - config.seconds;
  OpenLoopResult saturated;
  {
    fcm::index::AsyncSearchService service(serving);
    saturated = RunOpenLoop(&service, *engine, charts, order, config, nullptr);
  }
  const double peak_rss_mb = PeakRssMb();

  std::vector<double> untraced_ms, traced_ms;
  size_t in_window = 0;
  double extract_fail = 0.0;
  for (const OpenLoopResult* pass : {&open, &saturated}) {
    for (const Response& r : pass->responses) {
      report->Attempt();
      extract_fail += r.extract_failed;
      if (!r.ok) {
        report->Fail("funnel: " + r.error);
        continue;
      }
      if (!SameHits(r.hits, refs[r.chart])) {
        report->Fail("funnel: chart " + std::to_string(r.chart) +
                     " ranked differently from its reference");
        continue;
      }
      if (pass == &open) {
        (r.traced ? traced_ms : untraced_ms).push_back(r.latency_ms);
      } else if (r.completed_in_window) {
        ++in_window;
      }
    }
  }
  const double qps = static_cast<double>(in_window) / saturated.window_s;

  LayerFacts facts;
  if (flags.trace) {
    facts.threads = EngineThreads();
    facts.extract_fail = extract_fail;
    // Without the prefilter the same tables give the uncapped interval /
    // LSH counts and the exhaustive ranking.
    fcm::index::SearchEngineOptions plain_options = options;
    plain_options.mean_prefilter = 0;
    SearchEngine plain(&model, &lake);
    plain.BuildWithOptions(plain_options);
    const auto plain_pin = plain.PinEpoch();
    const std::vector<ChartCase> sample(charts.begin(),
                                        charts.begin() + kRecallCharts);
    facts.funnel = CountFunnel(
        *engine, pin, plain, plain_pin, charts, IndexStrategy::kHybrid,
        ReferenceRankings(plain, sample, IndexStrategy::kNoIndex, plain_pin));
    MeasureCore(model, charts, tables, traced);
    NoteAsync(open, &facts);
    CalibrateStages(*engine, charts, IndexStrategy::kHybrid,
                    static_cast<size_t>(std::lround(facts.avg_batch)),
                    kCalibrationCalls, traced);
    facts.cpu_ms_per_query =
        open.cpu_ms / std::max<double>(1.0, open.responses.size());
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
  report->Record("strategy", "kHybrid");
  report->Record("precision", "f32");
  report->Record("lsh_bits", static_cast<double>(kLshBits));
  report->Record("mean_prefilter", static_cast<double>(kPrefilter));
  report->Record("offered_rate_qps", kOpenRateQps);
  report->Record("open_sent", static_cast<double>(open.responses.size()));
  report->Record("saturated_sent",
                 static_cast<double>(saturated.responses.size()));
  report->Record("generator_late_ms.mean", Mean(open.lateness_ms));
  report->Record("generator_late_ms.max",
                 Summarize(open.lateness_ms).tail);
  report->Record("avg_batch", static_cast<double>(open.stats.submitted) /
                                  std::max<double>(1.0, open.stats.batches));
  report->RecordPercentiles("latency", latency);
  if (flags.trace) {
    const std::string path =
        flags.out_dir + "/funnel-" + std::to_string(flags.seed) + ".snap";
    facts.storage = StorageProbe(*engine, path, charts, IndexStrategy::kHybrid,
                                 traced, report);
    report->RecordPercentiles("latency_traced", facts.traced);
    EmitLayerMetrics(tracer, facts, report);
    WriteTrace(tracer, flags, report);
    return;
  }
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("qps", qps, "1/s");
  report->Metric("p50_ms", latency.p50, "ms");
  report->Metric("p99_ms", latency.tail, "ms");
  report->Metric("ingest_visible_ms", Median(facts.ingest.visible_ms), "ms");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");
}

}  // namespace perfbench
