// Google-benchmark micro-benchmarks for the substrates: DTW, Hungarian
// matching, chart rendering, visual extraction, tensor ops, transformer
// forward/backward, interval tree and LSH queries — plus per-kernel
// GFLOP/s for every SIMD dispatch target compiled into the binary (the
// BM_Simd* / BM_MatMulDispatch families; targets this machine cannot run
// report themselves as skipped).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>

#include "chart/renderer.h"
#include "common/rng.h"
#include "common/simd.h"
#include "index/interval_tree.h"
#include "index/lsh.h"
#include "nn/attention.h"
#include "nn/ops.h"
#include "relevance/dtw.h"
#include "relevance/hungarian.h"
#include "vision/classical_extractor.h"

namespace fcm {
namespace {

std::vector<double> RandomSeries(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Normal();
  return v;
}

void BM_DtwFull(benchmark::State& state) {
  const auto a = RandomSeries(static_cast<size_t>(state.range(0)), 1);
  const auto b = RandomSeries(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::DtwDistance(a, b));
  }
}
BENCHMARK(BM_DtwFull)->Arg(64)->Arg(160)->Arg(320);

void BM_DtwBanded(benchmark::State& state) {
  const auto a = RandomSeries(static_cast<size_t>(state.range(0)), 1);
  const auto b = RandomSeries(static_cast<size_t>(state.range(0)), 2);
  rel::DtwOptions options;
  options.band_fraction = 0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::DtwDistance(a, b, options));
  }
}
BENCHMARK(BM_DtwBanded)->Arg(64)->Arg(160)->Arg(320);

void BM_DtwPruned(benchmark::State& state) {
  // Dissimilar random pairs with a tight cutoff: the LB_Keogh-style
  // prefilter should reject most pairs in O(n) without running the DP.
  const auto a = RandomSeries(static_cast<size_t>(state.range(0)), 1);
  const auto b = RandomSeries(static_cast<size_t>(state.range(0)), 2);
  rel::DtwOptions options;
  options.band_fraction = 0.2;
  options.abandon_above = 0.05 * static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::DtwDistance(a, b, options));
  }
}
BENCHMARK(BM_DtwPruned)->Arg(64)->Arg(160)->Arg(320);

void BM_Hungarian(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(3);
  std::vector<std::vector<double>> w(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
  for (auto& row : w) {
    for (auto& x : row) x = rng.Uniform();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::MaxWeightBipartiteMatching(w));
  }
}
BENCHMARK(BM_Hungarian)->Arg(4)->Arg(8)->Arg(16);

table::UnderlyingData MakeWaves(int m, size_t n) {
  table::UnderlyingData d;
  for (int i = 0; i < m; ++i) {
    table::DataSeries s;
    for (size_t j = 0; j < n; ++j) {
      s.y.push_back(std::sin(static_cast<double>(j) * 0.1 + i) * 10.0);
    }
    d.push_back(std::move(s));
  }
  return d;
}

void BM_RenderChart(benchmark::State& state) {
  const auto d = MakeWaves(static_cast<int>(state.range(0)), 200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chart::RenderLineChart(d));
  }
}
BENCHMARK(BM_RenderChart)->Arg(1)->Arg(4)->Arg(8);

void BM_ClassicalExtract(benchmark::State& state) {
  const auto chart = chart::RenderLineChart(
      MakeWaves(static_cast<int>(state.range(0)), 200));
  vision::ClassicalExtractor extractor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(chart));
  }
}
BENCHMARK(BM_ClassicalExtract)->Arg(1)->Arg(4);

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(5);
  nn::Tensor a = nn::Tensor::RandomNormal({n, n}, 1.0f, &rng, false);
  nn::Tensor b = nn::Tensor::RandomNormal({n, n}, 1.0f, &rng, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_TransformerForward(benchmark::State& state) {
  common::Rng rng(6);
  nn::TransformerEncoder encoder(32, 2, 64, 2, 16, &rng);
  nn::Tensor x = nn::Tensor::RandomNormal({8, 32}, 1.0f, &rng, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(x));
  }
}
BENCHMARK(BM_TransformerForward);

void BM_TransformerForwardBackward(benchmark::State& state) {
  common::Rng rng(7);
  nn::TransformerEncoder encoder(32, 2, 64, 2, 16, &rng);
  nn::Tensor x = nn::Tensor::RandomNormal({8, 32}, 1.0f, &rng, false);
  for (auto _ : state) {
    nn::Tensor loss = nn::MeanAll(encoder.Forward(x));
    loss.Backward();
    encoder.ZeroGrad();
  }
}
BENCHMARK(BM_TransformerForwardBackward);

void BM_IntervalTreeQuery(benchmark::State& state) {
  common::Rng rng(8);
  std::vector<index::Interval> intervals;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    const double lo = rng.Uniform(-1000.0, 1000.0);
    intervals.push_back({lo, lo + rng.Uniform(0.0, 100.0), i});
  }
  index::IntervalTree tree(std::move(intervals));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.QueryOverlap(-50.0, 50.0));
  }
}
BENCHMARK(BM_IntervalTreeQuery)->Arg(1000)->Arg(10000);

// ---- SIMD kernels, one benchmark per (kernel, dispatch target). The
// second range argument is the simd::Target enum value; the GFLOP/s
// counter is what the acceptance bar (>= 2x dot, >= 1.5x GEMM for avx2
// over scalar) reads. ----

/// Forces `target` for one benchmark run; reports skip when this binary
/// or machine lacks it. Restores startup dispatch on destruction.
class BenchTarget {
 public:
  BenchTarget(benchmark::State& state, int64_t target_index)
      : ok_(simd::SetTarget(static_cast<simd::Target>(target_index))) {
    if (!ok_) {
      state.SkipWithError("dispatch target not available on this machine");
    } else {
      state.SetLabel(
          simd::TargetName(static_cast<simd::Target>(target_index)));
    }
  }
  ~BenchTarget() { simd::ResetTarget(); }
  bool ok() const { return ok_; }

 private:
  bool ok_;
};

std::vector<float> RandomF32(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

void SetGflops(benchmark::State& state, double flops_per_iteration) {
  state.counters["GFLOP/s"] =
      benchmark::Counter(flops_per_iteration * 1e-9,
                         benchmark::Counter::kIsIterationInvariantRate);
}

void BM_SimdDotF32(benchmark::State& state) {
  BenchTarget target(state, state.range(1));
  if (!target.ok()) return;
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomF32(n, 101);
  const auto b = RandomF32(n, 102);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::DotF32(a.data(), b.data(), n));
  }
  SetGflops(state, 2.0 * static_cast<double>(n));
}
BENCHMARK(BM_SimdDotF32)
    ->ArgNames({"n", "target"})
    ->ArgsProduct({{64, 1024, 16384}, {0, 1, 2}});

void BM_SimdDotF64(benchmark::State& state) {
  BenchTarget target(state, state.range(1));
  if (!target.ok()) return;
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomSeries(n, 103);
  const auto b = RandomSeries(n, 104);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::DotF64(a.data(), b.data(), n));
  }
  SetGflops(state, 2.0 * static_cast<double>(n));
}
BENCHMARK(BM_SimdDotF64)
    ->ArgNames({"n", "target"})
    ->ArgsProduct({{1024, 16384}, {0, 1, 2}});

void BM_SimdReduceSumF64(benchmark::State& state) {
  BenchTarget target(state, state.range(1));
  if (!target.ok()) return;
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomSeries(n, 105);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::ReduceSumF64(a.data(), n));
  }
  SetGflops(state, static_cast<double>(n));
}
BENCHMARK(BM_SimdReduceSumF64)
    ->ArgNames({"n", "target"})
    ->ArgsProduct({{1024, 16384}, {0, 1, 2}});

void BM_SimdAxpyF32(benchmark::State& state) {
  BenchTarget target(state, state.range(1));
  if (!target.ok()) return;
  const size_t n = static_cast<size_t>(state.range(0));
  const auto x = RandomF32(n, 106);
  auto y = RandomF32(n, 107);
  for (auto _ : state) {
    simd::AxpyF32(1.000001f, x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  SetGflops(state, 2.0 * static_cast<double>(n));
}
BENCHMARK(BM_SimdAxpyF32)
    ->ArgNames({"n", "target"})
    ->ArgsProduct({{1024, 16384}, {0, 1, 2}});

std::vector<int8_t> RandomI8(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<int8_t> v(n);
  for (auto& x : v) {
    // The quantizer's range contract: [-127, 127], never -128.
    x = static_cast<int8_t>(static_cast<int>(rng.Uniform() * 255.0) - 127);
  }
  return v;
}

void BM_SimdDotI8(benchmark::State& state) {
  // Quantized-tier dot product; the GFLOP/s counter is the f32-equivalent
  // multiply-accumulate rate (acceptance: >= 1.5x BM_SimdDotF32 on avx2).
  BenchTarget target(state, state.range(1));
  if (!target.ok()) return;
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomI8(n, 111);
  const auto b = RandomI8(n, 112);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::DotI8(a.data(), b.data(), n));
  }
  SetGflops(state, 2.0 * static_cast<double>(n));
}
BENCHMARK(BM_SimdDotI8)
    ->ArgNames({"n", "target"})
    ->ArgsProduct({{64, 1024, 16384}, {0, 1, 2}});

void BM_SimdGemmI8F32(benchmark::State& state) {
  // The mean-similarity prefilter shape: one quantized query row against
  // a block of candidate rows, dequantized in the epilogue.
  BenchTarget target(state, state.range(1));
  if (!target.ok()) return;
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t rows = 64;
  const auto a = RandomI8(dim, 113);
  const auto b = RandomI8(rows * dim, 114);
  const auto scales = RandomF32(rows, 115);
  std::vector<float> c(rows);
  for (auto _ : state) {
    simd::GemmI8F32(a.data(), b.data(), dim, dim, 0.02f, scales.data(),
                    c.data(), rows);
    benchmark::DoNotOptimize(c.data());
  }
  SetGflops(state, 2.0 * static_cast<double>(rows * dim));
}
BENCHMARK(BM_SimdGemmI8F32)
    ->ArgNames({"dim", "target"})
    ->ArgsProduct({{32, 128}, {0, 1, 2}});

void BM_MatMulDispatch(benchmark::State& state) {
  // The end-to-end GEMM path (blocked loops + micro-kernel) per target;
  // flops = 2 n^3 per MatMul.
  BenchTarget target(state, state.range(1));
  if (!target.ok()) return;
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(108);
  nn::Tensor a = nn::Tensor::RandomNormal({n, n}, 1.0f, &rng, false);
  nn::Tensor b = nn::Tensor::RandomNormal({n, n}, 1.0f, &rng, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  SetGflops(state, 2.0 * std::pow(static_cast<double>(n), 3));
}
BENCHMARK(BM_MatMulDispatch)
    ->ArgNames({"n", "target"})
    ->ArgsProduct({{64, 128, 256}, {0, 1, 2}});

void BM_MatMulBackwardDispatch(benchmark::State& state) {
  BenchTarget target(state, state.range(1));
  if (!target.ok()) return;
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(109);
  nn::Tensor a = nn::Tensor::RandomNormal({n, n}, 1.0f, &rng, true);
  nn::Tensor b = nn::Tensor::RandomNormal({n, n}, 1.0f, &rng, true);
  for (auto _ : state) {
    nn::Tensor loss = nn::SumAll(nn::MatMul(a, b));
    loss.Backward();
    a.grad().assign(a.grad().size(), 0.0f);
    b.grad().assign(b.grad().size(), 0.0f);
  }
  // Forward 2n^3 plus two n^3-sized backward GEMMs.
  SetGflops(state, 6.0 * std::pow(static_cast<double>(n), 3));
}
BENCHMARK(BM_MatMulBackwardDispatch)
    ->ArgNames({"n", "target"})
    ->ArgsProduct({{64, 128}, {0, 1, 2}});

void BM_DtwDispatch(benchmark::State& state) {
  BenchTarget target(state, state.range(1));
  if (!target.ok()) return;
  const auto a = RandomSeries(static_cast<size_t>(state.range(0)), 1);
  const auto b = RandomSeries(static_cast<size_t>(state.range(0)), 2);
  rel::DtwOptions options;
  options.band_fraction = 0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rel::DtwDistance(a, b, options));
  }
}
BENCHMARK(BM_DtwDispatch)
    ->ArgNames({"n", "target"})
    ->ArgsProduct({{160, 320}, {0, 1, 2}});

void BM_LshCodeDispatch(benchmark::State& state) {
  // Hyperplane sign codes: num_bits x num_tables dot products per item.
  BenchTarget target(state, state.range(1));
  if (!target.ok()) return;
  common::Rng rng(110);
  index::LshConfig config;
  const int dim = static_cast<int>(state.range(0));
  common::ThreadPool pool(1);
  const index::RandomHyperplaneLsh lsh(dim, config, {}, &pool);
  std::vector<float> v(static_cast<size_t>(dim));
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    for (int t = 0; t < config.num_tables; ++t) {
      benchmark::DoNotOptimize(lsh.Code(v, t));
    }
  }
  SetGflops(state, 2.0 * static_cast<double>(dim) * config.num_bits *
                       config.num_tables);
}
BENCHMARK(BM_LshCodeDispatch)
    ->ArgNames({"dim", "target"})
    ->ArgsProduct({{32, 128}, {0, 1, 2}});

void BM_LshQuery(benchmark::State& state) {
  common::Rng rng(9);
  std::vector<float> rows(static_cast<size_t>(state.range(0)) * 32);
  for (auto& x : rows) x = static_cast<float>(rng.Normal());
  std::vector<index::LshItem> items;
  for (int64_t i = 0; i < state.range(0); ++i) {
    items.push_back({rows.data() + i * 32, i});
  }
  common::ThreadPool pool(1);
  const index::RandomHyperplaneLsh lsh(32, index::LshConfig(), items, &pool);
  std::vector<float> q(32);
  for (auto& x : q) x = static_cast<float>(rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsh.Query(q));
  }
}
BENCHMARK(BM_LshQuery)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace fcm

BENCHMARK_MAIN();
