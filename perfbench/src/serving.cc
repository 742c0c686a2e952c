// Serving helpers shared by the workloads: reference rankings, the traced
// stage composition, the open-loop client, pruning-funnel counts, model
// cost probes, the ingest and snapshot probes, and per-layer metrics.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <thread>

#include "bench.h"

namespace perfbench {

using fcm::index::EpochPin;
using fcm::vision::ExtractedChart;

bool SameHits(const Hits& a, const Hits& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].table_id != b[i].table_id || a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

fcm::common::Result<ExtractedChart> ExtractChart(const ChartCase& chart,
                                                 Tracer* tracer, int parent,
                                                 uint64_t request) {
  static const fcm::vision::ClassicalExtractor extractor;
  SpanScope span(tracer, "ClassicalExtractor::Extract", parent, request);
  auto extracted = extractor.Extract(chart.rendered);
  if (extracted.ok()) span.set_items(extracted.value().lines.size());
  return extracted;
}

std::vector<Hits> ReferenceRankings(const SearchEngine& engine,
                                    const std::vector<ChartCase>& charts,
                                    IndexStrategy strategy,
                                    const EpochPin& pin) {
  std::vector<Hits> out;
  out.reserve(charts.size());
  for (const ChartCase& c : charts) {
    out.push_back(engine.Search(c.extracted, kTopK, strategy, nullptr, pin));
  }
  return out;
}

Hits TracedSearch(const SearchEngine& engine, const ExtractedChart& query,
                  IndexStrategy strategy, const EpochPin& pin, Tracer* tracer,
                  int parent, uint64_t request) {
  SpanScope search(tracer, "SearchEngine::Search", parent, request, pin->id());
  if (query.lines.empty()) return {};
  std::vector<SearchEngine::StagedQuery> staged(1);
  staged[0].query = &query;
  staged[0].strategy = strategy;
  staged[0].k = kTopK;
  {
    SpanScope span(tracer, "SearchEngine::EncodeStage", search.id(), request,
                   pin->id());
    engine.EncodeStage(&staged);
    span.set_items(1);
  }
  {
    SpanScope span(tracer, "SearchEngine::CandidateStage", search.id(),
                   request, pin->id());
    engine.CandidateStage(&staged, nullptr, pin);
    span.set_items(staged[0].candidates.size());
  }
  SpanScope span(tracer, "SearchEngine::ScoreStage", search.id(), request,
                 pin->id());
  auto hits = engine.ScoreStage(staged, nullptr, nullptr, pin);
  span.set_items(staged[0].candidates.size());
  return std::move(hits[0]);
}

void CalibrateStages(const SearchEngine& engine,
                     const std::vector<ChartCase>& charts,
                     IndexStrategy strategy, size_t batch, int calls,
                     Tracer* tracer) {
  const EpochPin pin = engine.PinEpoch();
  batch = std::max<size_t>(1, batch);
  for (int call = 0; call < calls; ++call) {
    const uint64_t request = static_cast<uint64_t>(call) + 1;
    SpanScope root(tracer, "calibration_batch", -1, request, pin->id());
    std::vector<SearchEngine::StagedQuery> staged(batch);
    for (size_t j = 0; j < batch; ++j) {
      const size_t c = (static_cast<size_t>(call) * batch + j) % charts.size();
      staged[j].query = &charts[c].extracted;
      staged[j].strategy = strategy;
      staged[j].k = kTopK;
    }
    {
      SpanScope span(tracer, "SearchEngine::EncodeStage", root.id(), request,
                     pin->id());
      engine.EncodeStage(&staged);
      span.set_items(batch);
    }
    size_t pairs = 0;
    {
      SpanScope span(tracer, "SearchEngine::CandidateStage", root.id(),
                     request, pin->id());
      engine.CandidateStage(&staged, nullptr, pin);
      for (const auto& sq : staged) pairs += sq.candidates.size();
      span.set_items(pairs);
    }
    SpanScope span(tracer, "SearchEngine::ScoreStage", root.id(), request,
                   pin->id());
    (void)engine.ScoreStage(staged, nullptr, nullptr, pin);
    span.set_items(pairs);
  }
}

FunnelCounts CountFunnel(const SearchEngine& serving,
                         const EpochPin& serving_pin,
                         const SearchEngine& plain, const EpochPin& plain_pin,
                         const std::vector<ChartCase>& charts,
                         IndexStrategy served,
                         const std::vector<Hits>& exhaustive) {
  const auto candidates = [&](const SearchEngine& engine, const EpochPin& pin,
                              IndexStrategy strategy) {
    std::vector<SearchEngine::StagedQuery> staged(charts.size());
    for (size_t c = 0; c < charts.size(); ++c) {
      staged[c].query = &charts[c].extracted;
      staged[c].strategy = strategy;
      staged[c].k = kTopK;
    }
    engine.EncodeStage(&staged);
    engine.CandidateStage(&staged, nullptr, pin);
    return staged;
  };
  const auto mean_size = [&](const std::vector<SearchEngine::StagedQuery>& s) {
    double total = 0.0;
    for (const auto& sq : s) total += static_cast<double>(sq.candidates.size());
    return total / static_cast<double>(s.size());
  };
  FunnelCounts out;
  out.lake = static_cast<double>(serving_pin->num_tables());
  out.interval =
      mean_size(candidates(plain, plain_pin, IndexStrategy::kIntervalTree));
  out.lsh = mean_size(candidates(plain, plain_pin, IndexStrategy::kHybrid));
  const auto kept = candidates(serving, serving_pin, served);
  out.scored = mean_size(kept);
  double recall = 0.0;
  for (size_t c = 0; c < exhaustive.size(); ++c) {
    const auto& ids = kept[c].candidates;  // Sorted ascending.
    size_t found = 0;
    for (const auto& hit : exhaustive[c]) {
      found += std::binary_search(ids.begin(), ids.end(), hit.table_id);
    }
    recall += exhaustive[c].empty()
                  ? 1.0
                  : static_cast<double>(found) /
                        static_cast<double>(exhaustive[c].size());
  }
  out.candidate_recall =
      exhaustive.empty() ? 0.0
                         : recall / static_cast<double>(exhaustive.size());
  return out;
}

void MeasureCore(const fcm::core::FcmModel& model,
                 const std::vector<ChartCase>& charts,
                 const std::vector<fcm::table::Table>& tables,
                 Tracer* tracer) {
  const size_t num_charts = std::min<size_t>(8, charts.size());
  const size_t num_tables = std::min<size_t>(16, tables.size());
  std::vector<fcm::core::ChartRepresentation> chart_reps;
  for (size_t c = 0; c < num_charts; ++c) {
    chart_reps.push_back(fcm::core::FcmModel::Detach(
        model.EncodeChart(charts[c].extracted)));
  }
  std::vector<fcm::core::DatasetRepresentation> datasets;
  for (size_t t = 0; t < num_tables; ++t) {
    SpanScope span(tracer, "FcmModel::EncodeDataset");
    datasets.push_back(
        fcm::core::FcmModel::Detach(model.EncodeDataset(tables[t])));
    span.set_items(tables[t].num_columns());
  }
  double sink = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t c = 0; c < num_charts; ++c) {
      const ExtractedChart& chart = charts[c].extracted;
      for (const auto& dataset : datasets) {
        SpanScope span(tracer, "FcmModel::ScoreEncoded");
        sink += model.ScoreEncoded(chart_reps[c], dataset, chart.y_lo,
                                   chart.y_hi);
        span.set_items(1);
      }
    }
  }
  if (!std::isfinite(sink)) std::fprintf(stderr, "perfbench: odd scores\n");
}

OpenLoopResult RunOpenLoop(fcm::index::AsyncSearchService* service,
                           const SearchEngine& engine,
                           const std::vector<ChartCase>& charts,
                           const std::vector<size_t>& order,
                           const OpenLoopConfig& config, Tracer* tracer) {
  struct Pending {
    size_t chart = 0;
    bool extract_failed = false;
    Clock::time_point scheduled{};
    std::future<Hits> future;
    std::string error;
    uint64_t tables_at_submit = 0;
    size_t segments_at_submit = 0;
    bool traced = false;
    int root = -1;
    int pending_span = -1;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool generator_done = false;

  OpenLoopResult out;
  out.window_s = config.seconds;
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto window_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  const double cpu0 = ProcessCpuMs();

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || generator_done; });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      Response r;
      r.chart = p.chart;
      r.traced = p.traced;
      r.tables_at_submit = p.tables_at_submit;
      r.segments_at_submit = p.segments_at_submit;
      r.error = p.error;
      r.extract_failed = p.extract_failed;
      if (p.future.valid()) {
        try {
          r.hits = p.future.get();
          r.ok = true;
        } catch (const std::exception& e) {
          r.error = e.what();
        }
      }
      const auto done = Clock::now();
      r.latency_ms = MsBetween(p.scheduled, done);
      r.completed_in_window = done <= window_end;
      out.elapsed_s = std::chrono::duration<double>(done - start).count();
      r.tables_at_done = engine.num_tables();
      if (p.traced) {
        if (p.pending_span >= 0) tracer->Close(p.pending_span, done, 0);
        tracer->Close(p.root, done, r.ok ? 1 : 0);
      }
      out.responses.push_back(std::move(r));
    }
  });

  for (uint64_t i = 0;; ++i) {
    Clock::time_point scheduled;
    if (config.saturate) {
      scheduled = Clock::now();
      if (scheduled >= window_end) break;
    } else {
      scheduled = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(i) / config.rate_qps));
      if (scheduled >= window_end) break;
      std::this_thread::sleep_until(scheduled);
      out.lateness_ms.push_back(MsBetween(scheduled, Clock::now()));
    }
    Pending p;
    p.chart = order[i % order.size()];
    p.scheduled = scheduled;
    const EpochPin pin = engine.PinEpoch();
    p.tables_at_submit = pin->num_tables();
    p.segments_at_submit = pin->num_segments();
    const double offset_s =
        std::chrono::duration<double>(scheduled - start).count();
    p.traced = tracer != nullptr &&
               (!config.alternate_trace || InTracedWindow(offset_s));
    Tracer* t = p.traced ? tracer : nullptr;
    const uint64_t request = i + 1;
    if (t != nullptr) {
      p.root = t->Open("request", -1, request, pin->id(), scheduled);
    }
    auto extracted = ExtractChart(charts[p.chart], t, p.root, request);
    if (extracted.ok()) {
      {
        SpanScope span(t, "AsyncSearchService::Submit", p.root, request,
                       pin->id());
        p.future = service->Submit(std::move(extracted).value(), kTopK,
                                   config.strategy);
      }
      if (t != nullptr) {
        p.pending_span = t->Open("async.pending", p.root, request, pin->id(),
                                 Clock::now());
      }
    } else {
      p.extract_failed = true;
      p.error = "extract: " + extracted.status().ToString();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(p));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  }
  cv.notify_one();
  collector.join();
  out.cpu_ms = ProcessCpuMs() - cpu0;
  out.stats = service->stats();
  return out;
}

IngestFacts IngestProbe(SearchEngine* engine, fcm::common::Rng* rng,
                        Tracer* tracer, Report* report) {
  constexpr size_t kBatches = 8;
  constexpr size_t kBatchTables = 32;
  std::vector<std::vector<fcm::table::Table>> batches;
  for (size_t j = 0; j < kBatches; ++j) {
    batches.push_back(GenerateTables(kBatchTables, rng));
  }
  IngestFacts facts;
  for (auto& batch : batches) {
    report->Attempt();
    fcm::index::IngestStats stats;
    std::string error;
    double ms = 0.0;
    {
      SpanScope span(tracer, "SearchEngine::IngestBatch", -1, 0,
                     engine->epoch_id());
      span.set_items(batch.size());
      ms = IngestVisibleMs(
          [&](std::vector<fcm::table::Table> tables,
              fcm::index::IngestStats* s) {
            return engine->IngestBatch(std::move(tables), s);
          },
          *engine, std::move(batch), &stats, &error);
    }
    if (ms < 0.0) {
      report->Fail("ingest probe: " + error);
      continue;
    }
    facts.visible_ms.push_back(ms);
    facts.encode_ms += stats.encode_seconds * 1e3;
    facts.lsh_ms += stats.lsh_seconds * 1e3;
    facts.interval_ms += stats.interval_seconds * 1e3;
  }
  const double n = std::max<double>(1.0, facts.visible_ms.size());
  facts.encode_ms /= n;
  facts.lsh_ms /= n;
  facts.interval_ms /= n;
  report->Attempt();
  SpanScope span(tracer, "SearchEngine::Compact", -1, 0, engine->epoch_id());
  const fcm::common::Status compacted = engine->Compact();
  if (compacted.ok()) {
    ++facts.compactions;
  } else {
    report->Fail("ingest probe compact: " + compacted.ToString());
  }
  return facts;
}

StorageFacts StorageProbe(const SearchEngine& engine, const std::string& path,
                          const std::vector<ChartCase>& charts,
                          IndexStrategy strategy, Tracer* tracer,
                          Report* report) {
  StorageFacts facts;
  report->Attempt();
  fcm::common::Status saved;
  auto t0 = Clock::now();
  {
    SpanScope span(tracer, "SearchEngine::SaveSnapshot", -1, 0,
                   engine.epoch_id());
    saved = engine.SaveSnapshot(path);
  }
  facts.save_ms = MsBetween(t0, Clock::now());
  if (!saved.ok()) {
    report->Fail("save snapshot: " + saved.ToString());
    return facts;
  }
  facts.snapshot_bytes = static_cast<double>(
      std::ifstream(path, std::ios::binary | std::ios::ate).tellg());
  t0 = Clock::now();
  const auto open = [&] {
    SpanScope span(tracer, "SearchEngine::OpenSnapshot");
    return SearchEngine::OpenSnapshot(path);
  };
  const auto opened = open();
  facts.open_ms = MsBetween(t0, Clock::now());
  if (!opened.ok()) {
    report->Fail("open snapshot: " + opened.status().ToString());
  } else {
    const size_t sample = std::min<size_t>(8, charts.size());
    for (size_t c = 0; c < sample; ++c) {
      const auto& q = charts[c].extracted;
      if (!SameHits(opened.value()->Search(q, kTopK, strategy),
                    engine.Search(q, kTopK, strategy))) {
        report->Fail("reopened snapshot ranks chart " + std::to_string(c) +
                     " differently");
      }
    }
  }
  std::remove(path.c_str());
  return facts;
}

void EmitLayerMetrics(const Tracer& tracer, const LayerFacts& facts,
                      Report* report) {
  const auto layers = tracer.SelfTimes();
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerTime{} : it->second;
  };
  const LayerTime score = layer("SearchEngine::ScoreStage");
  const double encode_ms = layer("SearchEngine::EncodeStage").MeanMs();
  const double candidate_ms = layer("SearchEngine::CandidateStage").MeanMs();
  const double score_us_per_pair =
      score.items ? score.self_ms * 1e3 / static_cast<double>(score.items)
                  : 0.0;
  const double pair_us = layer("FcmModel::ScoreEncoded").MeanMs() * 1e3;
  const double service_ms = layer("AsyncSearchService::Submit").MeanMs() +
                            layer("async.pending").MeanMs();

  report->Metric("vision.extract_ms",
                 layer("ClassicalExtractor::Extract").MeanMs(), "ms");
  report->Metric("vision.extract_fail", facts.extract_fail, "count");
  report->Metric("index.encode_ms", encode_ms, "ms");
  report->Metric("index.candidate_ms", candidate_ms, "ms");
  report->Metric("index.score_ms", score.MeanMs(), "ms");
  report->Metric("index.score_us_per_pair", score_us_per_pair, "us");
  report->Metric("index.funnel.lake", facts.funnel.lake, "count");
  report->Metric("index.funnel.interval", facts.funnel.interval, "count");
  report->Metric("index.funnel.lsh", facts.funnel.lsh, "count");
  report->Metric("index.funnel.scored", facts.funnel.scored, "count");
  report->Metric("index.funnel.candidate_recall",
                 facts.funnel.candidate_recall, "ratio");
  report->Metric("core.score_pair_us", pair_us, "us");
  report->Metric("core.encode_table_ms",
                 layer("FcmModel::EncodeDataset").MeanMs(), "ms");
  report->Metric("pool.cpu_ms_per_query", facts.cpu_ms_per_query, "ms");
  report->Metric("pool.efficiency",
                 score.self_ms > 0.0
                     ? static_cast<double>(score.items) * pair_us /
                           (score.self_ms * 1e3 * facts.threads)
                     : 0.0,
                 "ratio");
  report->Metric("async.service_ms", service_ms, "ms");
  report->Metric("async.wait_ms",
                 service_ms - (encode_ms + candidate_ms + score.MeanMs()),
                 "ms");
  report->Metric("async.avg_batch", facts.avg_batch, "count");
  report->Metric("async.max_coalesced", facts.max_coalesced, "count");
  report->Metric("async.retried", facts.retried, "count");
  report->Metric("async.generator_late_ms", facts.generator_late_ms, "ms");
  report->Metric("ingest.encode_ms", facts.ingest.encode_ms, "ms");
  report->Metric("ingest.lsh_ms", facts.ingest.lsh_ms, "ms");
  report->Metric("ingest.interval_ms", facts.ingest.interval_ms, "ms");
  report->Metric("ingest.compact_ms", layer("SearchEngine::Compact").MeanMs(),
                 "ms");
  report->Metric("ingest.compactions",
                 static_cast<double>(facts.ingest.compactions), "count");
  report->Metric("index.segments_per_query", facts.ingest.segments_per_query,
                 "count");
  report->Metric("storage.save_ms",
                 layer("SearchEngine::SaveSnapshot").MeanMs(), "ms");
  report->Metric("storage.open_ms",
                 layer("SearchEngine::OpenSnapshot").MeanMs(), "ms");
  report->Metric("storage.snapshot_bytes", facts.storage.snapshot_bytes,
                 "bytes");
  report->Metric("index.embedding_bytes", facts.embedding_bytes, "bytes");
  report->Metric("trace.overhead_p50_ms",
                 facts.traced.p50 - facts.untraced.p50, "ms");

  // Each layer's share of the untraced p50: the check that a workload
  // does the job it was chosen for.
  if (facts.untraced.p50 > 0.0) {
    const std::pair<const char*, double> shares[] = {
        {"vision.extract_ms", layer("ClassicalExtractor::Extract").MeanMs()},
        {"index.encode_ms", encode_ms},
        {"index.candidate_ms", candidate_ms},
        {"index.score_ms", score.MeanMs()},
        {"async.wait_ms",
         service_ms - (encode_ms + candidate_ms + score.MeanMs())}};
    for (const auto& [name, ms] : shares) {
      report->Record(std::string("p50_share.") + name, ms / facts.untraced.p50);
    }
  }

  // Where a request's time went, for the run record.
  for (const auto& [name, time] : layers) {
    report->Record("self_ms." + name, time.MeanMs());
    report->Record("spans." + name, static_cast<double>(time.count));
  }
}

void WriteTrace(const Tracer& tracer, const Flags& flags, Report* report) {
  const std::string path = flags.out_dir + "/trace-" + flags.workload + "-" +
                           std::to_string(flags.seed) + ".jsonl";
  if (!tracer.Write(path)) {
    report->Fail("could not write trace " + path);
    return;
  }
  report->Record("trace_file", path);
  report->Record("trace_spans", static_cast<double>(tracer.size()));
}

void NoteAsync(const OpenLoopResult& result, LayerFacts* facts) {
  facts->avg_batch = static_cast<double>(result.stats.submitted) /
                     std::max<double>(1.0, result.stats.batches);
  facts->max_coalesced = static_cast<double>(result.stats.max_coalesced);
  facts->retried = static_cast<double>(result.stats.retried);
  facts->generator_late_ms = Mean(result.lateness_ms);
}

fcm::index::SearchEngineOptions EngineOptions() {
  fcm::index::SearchEngineOptions options;
  options.num_threads = EngineThreads();
  return options;
}

std::unique_ptr<SearchEngine> BuildRepeated(
    const fcm::core::FcmModel& model, const fcm::table::DataLake& lake,
    const fcm::index::SearchEngineOptions& options,
    std::vector<double>* setup_s) {
  std::unique_ptr<SearchEngine> engine;
  for (int r = 0; r < kSetupRepeats; ++r) {
    engine.reset();  // Free the previous build before timing the next.
    const auto t0 = Clock::now();
    engine = std::make_unique<SearchEngine>(&model, &lake);
    engine->BuildWithOptions(options);
    setup_s->push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  return engine;
}

}  // namespace perfbench
