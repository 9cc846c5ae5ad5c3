// Micro benchmarks for the ML substrates (google-benchmark).
//
// These support Observation 3 of the paper: trial cost is ~linear in the
// sample size and in the cost-related hyperparameters (tree num, leaf num).
// The per-size/per-leaves timings printed here should scale ~linearly.

#include <benchmark/benchmark.h>

#include <numeric>

#include "boosting/gbdt.h"
#include "data/generators.h"
#include "forest/forest.h"
#include "linear/linear_model.h"
#include "tree/grower.h"

namespace {

using namespace flaml;

Dataset& bench_data() {
  static Dataset data = [] {
    SyntheticSpec spec;
    spec.task = Task::BinaryClassification;
    spec.n_rows = 20000;
    spec.n_features = 20;
    spec.seed = 5;
    return make_classification(spec);
  }();
  return data;
}

void BM_BinningFit(benchmark::State& state) {
  DataView view = DataView(bench_data()).prefix(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BinMapper::fit(view, 255));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BinningFit)->RangeMultiplier(4)->Range(1000, 16000)->Complexity();

void BM_HistogramTreeGrow(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const int leaves = static_cast<int>(state.range(1));
  DataView view = DataView(bench_data()).prefix(n);
  BinMapper mapper = BinMapper::fit(view, 255);
  PackedBins packed = mapper.encode_packed(view);
  GradientTreeGrower grower(mapper, packed);
  std::vector<std::uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<double> grad(n), hess(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) grad[i] = view.label(i) - 0.5;
  std::vector<int> features(view.n_cols());
  std::iota(features.begin(), features.end(), 0);
  GrowerParams params;
  params.max_leaves = leaves;
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(grower.grow(rows, grad, hess, features, params, rng));
  }
}
BENCHMARK(BM_HistogramTreeGrow)
    ->Args({2000, 31})
    ->Args({8000, 31})
    ->Args({16000, 31})
    ->Args({8000, 7})
    ->Args({8000, 127});

void BM_GbdtTrain(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const int trees = static_cast<int>(state.range(1));
  DataView view = DataView(bench_data()).prefix(n);
  GBDTParams params;
  params.n_trees = trees;
  params.max_leaves = 15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(train_gbdt(view, nullptr, params));
  }
}
BENCHMARK(BM_GbdtTrain)
    ->Args({1000, 10})
    ->Args({4000, 10})
    ->Args({16000, 10})
    ->Args({4000, 40});

void BM_GbdtPredict(benchmark::State& state) {
  DataView view = DataView(bench_data()).prefix(8000);
  GBDTParams params;
  params.n_trees = 30;
  params.max_leaves = 31;
  GBDTModel model = train_gbdt(view, nullptr, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(view));
  }
}
BENCHMARK(BM_GbdtPredict);

void BM_ForestTrain(benchmark::State& state) {
  DataView view = DataView(bench_data()).prefix(static_cast<std::size_t>(state.range(0)));
  ForestParams params;
  params.n_trees = 10;
  params.max_features = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(train_forest(view, params));
  }
}
BENCHMARK(BM_ForestTrain)->Arg(2000)->Arg(8000);

void BM_LogisticTrain(benchmark::State& state) {
  DataView view = DataView(bench_data()).prefix(static_cast<std::size_t>(state.range(0)));
  LinearParams params;
  params.max_iterations = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(train_linear(view, params));
  }
}
BENCHMARK(BM_LogisticTrain)->Arg(2000)->Arg(8000);

}  // namespace

BENCHMARK_MAIN();
