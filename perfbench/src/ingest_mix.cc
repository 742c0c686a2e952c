// ingest_mix: open-loop reads (kNoIndex, int8 mean tier, mean_prefilter
// 32) at a fixed rate through AsyncSearchService while a writer calls
// AsyncSearchService::Ingest with fixed-size batches at a fixed cadence and
// compacts whenever the epoch carries enough delta segments. The only
// workload that writes and the only one on the int8 and prefilter kernels:
// work moved from query time into segment build shows here, where scan
// and funnel would see it only as set-up time.

#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "bench.h"

namespace perfbench {
namespace {

constexpr size_t kBaseTables = 300;
constexpr size_t kBatchTables = 8;
constexpr double kCadenceS = 0.6;
/// Compact once the current epoch carries this many delta segments.
constexpr size_t kCompactAtDeltas = 4;
constexpr size_t kCharts = 64;
constexpr int kPrefilter = 32;
constexpr double kReadRateQps = 80.0;
constexpr int kCalibrationCalls = 40;
/// Charts ranked on the final epoch and on a from-scratch build.
constexpr size_t kIdentitySample = 8;

fcm::index::SearchEngineOptions Int8Options() {
  fcm::index::SearchEngineOptions options = EngineOptions();
  options.precision = fcm::index::EmbeddingPrecision::kInt8;
  options.mean_prefilter = kPrefilter;
  return options;
}

/// What the writer thread saw; folded into the report after it joins.
struct WriterLog {
  std::vector<double> visible_ms;
  std::vector<std::string> errors;
  std::map<uint64_t, fcm::index::EpochPin> generations;  // tables -> pin
  IngestFacts facts;
  uint64_t attempts = 0;
};

}  // namespace

void RunIngestMix(const Flags& flags, Report* report) {
  fcm::common::Rng rng(flags.seed);
  fcm::common::Rng table_rng = rng.Fork();
  fcm::common::Rng ingest_rng = rng.Fork();
  fcm::common::Rng chart_rng = rng.Fork();
  fcm::common::Rng order_rng = rng.Fork();
  const size_t num_batches =
      std::max<size_t>(1, static_cast<size_t>(flags.seconds / kCadenceS));
  auto all_tables = GenerateTables(kBaseTables, &table_rng);
  const auto base_lake = MakeLake(all_tables);
  auto ingested = GenerateTables(num_batches * kBatchTables, &ingest_rng);
  all_tables.insert(all_tables.end(), ingested.begin(), ingested.end());
  // Charts come from base and ingested tables alike, so appends change
  // what the reads find.
  size_t rejected = 0;
  const auto charts =
      GenerateCharts(all_tables, kCharts, &chart_rng, &rejected);
  const auto order = ChartOrder(charts.size(), &order_rng);
  const fcm::core::FcmModel model{fcm::core::FcmConfig{}};
  Tracer tracer;
  Tracer* const traced = flags.trace ? &tracer : nullptr;

  std::vector<double> setup_s;
  const std::unique_ptr<SearchEngine> engine =
      BuildRepeated(model, base_lake, Int8Options(), &setup_s);

  WriterLog log;
  log.generations[engine->num_tables()] = engine->PinEpoch();
  OpenLoopResult reads;
  {
    fcm::index::AsyncSearchService service(engine.get());
    std::thread writer([&] {
      const auto start = Clock::now();
      for (size_t j = 0; j < num_batches; ++j) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>((j + 0.5) * kCadenceS)));
        std::vector<fcm::table::Table> batch(
            ingested.begin() + static_cast<long>(j * kBatchTables),
            ingested.begin() + static_cast<long>((j + 1) * kBatchTables));
        ++log.attempts;
        fcm::index::IngestStats stats;
        std::string error;
        double ms = 0.0;
        {
          SpanScope span(traced, "AsyncSearchService::Ingest", -1, j + 1,
                         engine->epoch_id());
          span.set_items(batch.size());
          ms = IngestVisibleMs(
              [&](std::vector<fcm::table::Table> tables,
                  fcm::index::IngestStats* s) {
                return service.Ingest(std::move(tables), s);
              },
              *engine, std::move(batch), &stats, &error);
        }
        if (ms < 0.0) {
          log.errors.push_back("ingest: " + error);
          break;  // Later generations would not match the tables.
        }
        log.visible_ms.push_back(ms);
        log.facts.encode_ms += stats.encode_seconds * 1e3;
        log.facts.lsh_ms += stats.lsh_seconds * 1e3;
        log.facts.interval_ms += stats.interval_seconds * 1e3;
        const auto pin = engine->PinEpoch();
        log.generations[pin->num_tables()] = pin;
        if (engine->num_delta_segments() >= kCompactAtDeltas) {
          ++log.attempts;
          SpanScope span(traced, "SearchEngine::Compact", -1, j + 1,
                         engine->epoch_id());
          const fcm::common::Status compacted = engine->Compact();
          if (compacted.ok()) {
            ++log.facts.compactions;
          } else {
            log.errors.push_back("compact: " + compacted.ToString());
          }
        }
      }
    });
    OpenLoopConfig config;
    config.rate_qps = kReadRateQps;
    config.seconds = flags.seconds;
    config.strategy = IndexStrategy::kNoIndex;
    reads = RunOpenLoop(&service, *engine, charts, order, config, traced);
    writer.join();
  }
  const double peak_rss_mb = PeakRssMb();
  report->Attempt(log.attempts);
  for (const std::string& e : log.errors) report->Fail(e);

  // Every read must equal serial Search on some generation published
  // between its submission and its completion.
  std::map<std::pair<size_t, uint64_t>, Hits> refs;
  std::vector<double> untraced_ms, traced_ms;
  double segments = 0.0;
  double extract_fail = 0.0;
  for (const Response& r : reads.responses) {
    report->Attempt();
    extract_fail += r.extract_failed;
    if (!r.ok) {
      report->Fail("ingest_mix read: " + r.error);
      continue;
    }
    bool matched = false;
    const auto last = log.generations.upper_bound(r.tables_at_done);
    for (auto it = log.generations.lower_bound(r.tables_at_submit);
         it != last && !matched; ++it) {
      auto ref = refs.find({r.chart, it->first});
      if (ref == refs.end()) {
        ref = refs.emplace(std::make_pair(r.chart, it->first),
                           engine->Search(charts[r.chart].extracted, kTopK,
                                          IndexStrategy::kNoIndex, nullptr,
                                          it->second))
                  .first;
      }
      matched = SameHits(r.hits, ref->second);
    }
    if (!matched) {
      report->Fail("ingest_mix: chart " + std::to_string(r.chart) +
                   " matches no generation it could have seen");
      continue;
    }
    (r.traced ? traced_ms : untraced_ms).push_back(r.latency_ms);
    segments += static_cast<double>(r.segments_at_submit);
  }
  log.generations.clear();  // Retire the pinned epochs.

  // The final epoch must rank a sample of charts exactly like a
  // from-scratch build over the same tables.
  const auto final_pin = engine->PinEpoch();
  const auto final_lake = MakeLake(std::vector<fcm::table::Table>(
      all_tables.begin(),
      all_tables.begin() + static_cast<long>(final_pin->num_tables())));
  {
    SearchEngine scratch(&model, &final_lake);
    scratch.BuildWithOptions(Int8Options());
    for (size_t c = 0; c < std::min(kIdentitySample, charts.size()); ++c) {
      const auto& q = charts[c].extracted;
      report->Attempt();
      if (!SameHits(engine->Search(q, kTopK, IndexStrategy::kNoIndex, nullptr,
                                   final_pin),
                    scratch.Search(q, kTopK, IndexStrategy::kNoIndex))) {
        report->Fail("final epoch ranks chart " + std::to_string(c) +
                     " unlike a from-scratch build");
      }
    }
  }

  const size_t ok_reads = untraced_ms.size() + traced_ms.size();
  LayerFacts facts;
  facts.ingest = log.facts;
  const double batches = std::max<double>(1.0, log.visible_ms.size());
  facts.ingest.encode_ms /= batches;
  facts.ingest.lsh_ms /= batches;
  facts.ingest.interval_ms /= batches;
  facts.ingest.segments_per_query =
      segments / std::max<double>(1.0, ok_reads);
  if (flags.trace) {
    facts.threads = EngineThreads();
    facts.extract_fail = extract_fail;
    // An f32 build without the prefilter gives the uncapped interval /
    // LSH counts and the exhaustive ranking the prefilter is judged by.
    SearchEngine plain(&model, &final_lake);
    plain.BuildWithOptions(EngineOptions());
    const auto plain_pin = plain.PinEpoch();
    facts.funnel = CountFunnel(
        *engine, final_pin, plain, plain_pin, charts, IndexStrategy::kNoIndex,
        ReferenceRankings(plain, charts, IndexStrategy::kNoIndex, plain_pin));
    MeasureCore(model, charts, all_tables, traced);
    NoteAsync(reads, &facts);
    CalibrateStages(*engine, charts, IndexStrategy::kNoIndex,
                    static_cast<size_t>(std::lround(facts.avg_batch)),
                    kCalibrationCalls, traced);
    facts.cpu_ms_per_query =
        reads.cpu_ms / std::max<double>(1.0, reads.responses.size());
    facts.embedding_bytes = static_cast<double>(engine->embedding_bytes());
    facts.untraced = Summarize(untraced_ms);
    facts.traced = Summarize(traced_ms);
    // SaveSnapshot needs a compact epoch.
    report->Attempt();
    {
      SpanScope span(traced, "SearchEngine::Compact", -1, 0,
                     engine->epoch_id());
      const fcm::common::Status compacted = engine->Compact();
      if (!compacted.ok()) report->Fail("compact: " + compacted.ToString());
    }
    const std::string path =
        flags.out_dir + "/ingest_mix-" + std::to_string(flags.seed) + ".snap";
    facts.storage = StorageProbe(*engine, path, charts,
                                 IndexStrategy::kNoIndex, traced, report);
  }

  const Percentiles latency = Summarize(untraced_ms);
  report->Record("lake_tables", static_cast<double>(kBaseTables));
  report->Record("final_tables", static_cast<double>(final_pin->num_tables()));
  report->Record("query_charts", static_cast<double>(charts.size()));
  report->Record("charts_rejected", static_cast<double>(rejected));
  report->Record("setup_repeats", static_cast<double>(kSetupRepeats));
  report->Record("strategy", "kNoIndex");
  report->Record("precision", "int8");
  report->Record("mean_prefilter", static_cast<double>(kPrefilter));
  report->Record("offered_rate_qps", kReadRateQps);
  report->Record("ingest_batches", static_cast<double>(log.visible_ms.size()));
  report->Record("ingest_batch_tables", static_cast<double>(kBatchTables));
  report->Record("ingest_cadence_s", kCadenceS);
  report->Record("compactions", static_cast<double>(log.facts.compactions));
  report->Record("segments_per_query", facts.ingest.segments_per_query);
  report->Record("generator_late_ms.mean", Mean(reads.lateness_ms));
  report->Record("generator_late_ms.max", Summarize(reads.lateness_ms).tail);
  report->Record("reads_sent", static_cast<double>(reads.responses.size()));
  report->RecordPercentiles("latency", latency);
  if (flags.trace) {
    report->RecordPercentiles("latency_traced", facts.traced);
    EmitLayerMetrics(tracer, facts, report);
    WriteTrace(tracer, flags, report);
    return;
  }
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("qps", static_cast<double>(ok_reads) / reads.elapsed_s,
                 "1/s");
  report->Metric("p50_ms", latency.p50, "ms");
  report->Metric("p99_ms", latency.tail, "ms");
  report->Metric("ingest_visible_ms", Median(log.visible_ms), "ms");
  report->Metric("peak_rss_mb", peak_rss_mb, "MB");
}

}  // namespace perfbench
