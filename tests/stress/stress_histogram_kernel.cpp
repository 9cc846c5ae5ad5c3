// Histogram-kernel concurrency stress (run under TSan via the `stress`
// label): the packed substrate is immutable and shared — many threads
// hammering one PackedBins with simultaneous kernel builds must (a) never
// race, (b) produce histograms bit-identical to solo single-threaded runs,
// including when the hammer threads themselves use the shared pool for
// intra-build sharding.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "data/generators.h"
#include "tree/binning.h"
#include "tree/histogram.h"
#include "tree/packed_bins.h"

namespace flaml {
namespace {

Dataset stress_data(std::uint64_t seed, Task task) {
  SyntheticSpec spec;
  spec.task = task;
  spec.n_rows = 900;
  spec.n_features = 8;
  spec.missing_fraction = 0.1;
  spec.categorical_fraction = 0.25;
  spec.seed = seed;
  return task == Task::Regression ? make_regression(spec)
                                  : make_classification(spec);
}

TEST(HistogramKernelStress, ConcurrentBuildsOnSharedPackedMatchSoloRuns) {
  const Dataset data = stress_data(0xbeef, Task::Regression);
  const BinnedSubstrate substrate = build_substrate(DataView(data), 127);
  const PackedBins& packed = substrate.packed;
  const std::vector<std::size_t> offsets = histogram_offsets(substrate.mapper);
  const std::size_t n = data.n_rows();

  std::vector<int> features(substrate.mapper.n_features());
  std::iota(features.begin(), features.end(), 0);
  Rng rng(0xfeed);
  std::vector<double> grad(n), hess(n), unit(n, 1.0), weights(n);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] = rng.normal();
    hess[i] = rng.uniform(1e-3, 2.0);
    weights[i] = rng.uniform(0.1, 2.0);
    labels[i] = static_cast<int>(rng.uniform_index(3));
  }
  // A handful of distinct row subsets; threads cycle through them in
  // different orders so concurrent builds overlap on the same packed lines.
  std::vector<std::vector<std::uint32_t>> subsets;
  for (std::uint32_t stride = 1; stride <= 4; ++stride) {
    std::vector<std::uint32_t> rows;
    for (std::uint32_t i = 0; i < n; i += stride) rows.push_back(i);
    subsets.push_back(std::move(rows));
  }

  const HistKernel kernel = active_hist_kernel();
  ASSERT_NE(kernel, HistKernel::Scalar);

  // Solo references, built before any concurrency.
  std::vector<std::vector<HistEntry>> ref_grad(subsets.size());
  std::vector<std::vector<double>> ref_class(subsets.size());
  for (std::size_t s = 0; s < subsets.size(); ++s) {
    build_gradient_histogram_packed(packed, offsets, features,
                                    subsets[s].data(), subsets[s].size(),
                                    grad, hess, false, ref_grad[s], kernel);
    build_class_histogram_packed(packed, offsets, 3, subsets[s].data(),
                                 subsets[s].size(), labels, weights,
                                 ref_class[s], kernel);
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<HistEntry> hist;
      std::vector<double> cells;
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < subsets.size(); ++i) {
          const std::size_t s = (i + static_cast<std::size_t>(t)) % subsets.size();
          // Even threads also shard intra-build over the shared pool, so
          // pool-level and caller-level concurrency overlap under TSan.
          const HistParallel par =
              t % 2 == 0 ? HistParallel{&shared_pool(), 4} : HistParallel{};
          build_gradient_histogram_packed(packed, offsets, features,
                                          subsets[s].data(), subsets[s].size(),
                                          grad, hess, false, hist, kernel, par);
          bool ok = hist.size() == ref_grad[s].size();
          for (std::size_t j = 0; ok && j < hist.size(); ++j) {
            ok = hist[j].g == ref_grad[s][j].g &&
                 hist[j].h == ref_grad[s][j].h && hist[j].n == ref_grad[s][j].n;
          }
          build_class_histogram_packed(packed, offsets, 3, subsets[s].data(),
                                       subsets[s].size(), labels, weights,
                                       cells, kernel, par);
          ok = ok && cells.size() == ref_class[s].size();
          for (std::size_t j = 0; ok && j < cells.size(); ++j) {
            ok = cells[j] == ref_class[s][j];
          }
          if (!ok) ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace flaml
