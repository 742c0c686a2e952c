// Diagnostic harness for FCM training health: tracks retrieval quality and
// score separation (source table vs. ground-truth near-duplicates vs.
// background tables) across training epochs. Not part of the paper
// reproduction; used to tune the CPU-scale training recipe.

#include <cstdio>
#include <vector>

#include "baselines/fcm_method.h"
#include "bench/bench_common.h"
#include "eval/experiment.h"
#include "eval/metrics.h"

namespace fcm {
namespace {

struct Separation {
  double mean_source = 0.0;   // Score of the query's source table.
  double mean_relevant = 0.0; // Mean score over ground-truth tables.
  double mean_background = 0.0;
  double prec = 0.0;
  double ndcg = 0.0;
};

Separation Measure(const core::FcmModel& model,
                   const benchgen::Benchmark& bench, int k) {
  Separation sep;
  int nq = 0;
  for (const auto& query : bench.queries) {
    if (query.extracted.lines.empty()) continue;
    const auto chart_rep =
        core::FcmModel::Detach(model.EncodeChart(query.extracted));
    std::vector<std::pair<double, table::TableId>> scored;
    double source = 0.0, relevant_sum = 0.0, background_sum = 0.0;
    int n_rel = 0, n_bg = 0;
    std::vector<char> is_rel(bench.lake.size(), 0);
    for (const auto tid : query.relevant) is_rel[tid] = 1;
    for (const auto& t : bench.lake.tables()) {
      const auto rep = core::FcmModel::Detach(model.EncodeDataset(t));
      const double s =
          model.ScoreEncoded(chart_rep, rep, query.y_lo, query.y_hi);
      scored.emplace_back(s, t.id());
      if (t.id() == query.source_table) source = s;
      if (is_rel[t.id()]) {
        relevant_sum += s;
        ++n_rel;
      } else {
        background_sum += s;
        ++n_bg;
      }
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<table::TableId> ranked;
    for (int i = 0; i < k && i < static_cast<int>(scored.size()); ++i) {
      ranked.push_back(scored[i].second);
    }
    sep.prec += eval::PrecisionAtK(ranked, query.relevant, k);
    sep.ndcg += eval::NdcgAtK(ranked, query.relevant, k);
    sep.mean_source += source;
    if (n_rel > 0) sep.mean_relevant += relevant_sum / n_rel;
    if (n_bg > 0) sep.mean_background += background_sum / n_bg;
    ++nq;
  }
  if (nq > 0) {
    sep.prec /= nq;
    sep.ndcg /= nq;
    sep.mean_source /= nq;
    sep.mean_relevant /= nq;
    sep.mean_background /= nq;
  }
  return sep;
}

void Run() {
  const bench::BenchScale scale = bench::ReadScale();
  benchgen::Benchmark b = bench::BuildBench(scale);
  std::printf("lake=%zu queries=%zu triplets=%zu\n", b.lake.size(),
              b.queries.size(), b.training.size());

  core::FcmConfig config;
  core::FcmModel model(config);
  core::TrainOptions options = bench::DefaultTrainOptions(scale);

  {
    // Descriptor-bridge-only ranking quality (no learned parameters).
    double prec = 0.0, ndcg = 0.0;
    int nq = 0;
    for (const auto& query : b.queries) {
      if (query.extracted.lines.empty()) continue;
      const auto chart_rep =
          core::FcmModel::Detach(model.EncodeChart(query.extracted));
      std::vector<std::pair<double, table::TableId>> scored;
      for (const auto& t : b.lake.tables()) {
        const auto rep = core::FcmModel::Detach(model.EncodeDataset(t));
        scored.emplace_back(
            model.DescriptorScore(chart_rep, rep, query.y_lo, query.y_hi),
            t.id());
      }
      std::sort(scored.begin(), scored.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      std::vector<table::TableId> ranked;
      for (int i = 0; i < scale.k && i < static_cast<int>(scored.size()); ++i) {
        ranked.push_back(scored[static_cast<size_t>(i)].second);
      }
      prec += eval::PrecisionAtK(ranked, query.relevant, scale.k);
      ndcg += eval::NdcgAtK(ranked, query.relevant, scale.k);
      ++nq;
    }
    std::printf("descriptor-only: prec=%.3f ndcg=%.3f\n",
                nq > 0 ? prec / nq : 0.0, nq > 0 ? ndcg / nq : 0.0);
  }

  const Separation before = Measure(model, b, scale.k);
  std::printf(
      "epoch %2d: prec=%.3f ndcg=%.3f source=%.3f relevant=%.3f bg=%.3f\n",
      -1, before.prec, before.ndcg, before.mean_source, before.mean_relevant,
      before.mean_background);

  options.epoch_callback = [&](int epoch, double loss) {
    if ((epoch + 1) % 2 == 0 || epoch == 0) {
      const Separation sep = Measure(model, b, scale.k);
      std::printf(
          "epoch %2d: loss=%.4f prec=%.3f ndcg=%.3f source=%.3f "
          "relevant=%.3f bg=%.3f\n",
          epoch, loss, sep.prec, sep.ndcg, sep.mean_source,
          sep.mean_relevant, sep.mean_background);
      std::fflush(stdout);
    }
    return true;
  };
  const core::TrainStats stats = core::TrainFcm(&model, b.lake, b.training, options);
  const Separation final = Measure(model, b, scale.k);
  std::printf(
      "final (best epoch %d): prec=%.3f ndcg=%.3f source=%.3f "
      "relevant=%.3f bg=%.3f\n",
      stats.best_epoch, final.prec, final.ndcg, final.mean_source,
      final.mean_relevant, final.mean_background);
}

}  // namespace
}  // namespace fcm

int main() {
  fcm::Run();
  return 0;
}
