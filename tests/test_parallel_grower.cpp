// The determinism contract of intra-trial parallelism (docs/TESTING.md):
// growing a tree / forest / GBDT with n_threads ∈ {2, 4, 8} must produce
// BYTE-IDENTICAL models to the serial path — same splits, same thresholds,
// same leaf values — and bit-identical predictions. Each property serializes
// both models through tree_io / model save() and compares the strings, which
// catches any float-level divergence, not just structural mismatches.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <sstream>
#include <vector>

#include "boosting/gbdt.h"
#include "data/generators.h"
#include "forest/forest.h"
#include "support/prop.h"
#include "tree/class_grower.h"
#include "tree/grower.h"
#include "tree/tree_io.h"

namespace flaml {
namespace {

using testing::PropCase;

constexpr int kThreadCounts[] = {2, 4, 8};

std::string tree_string(const Tree& tree) {
  std::ostringstream os;
  os.precision(17);
  write_tree(os, tree);
  return os.str();
}

struct BinnedFixture {
  Dataset data;
  BinMapper mapper;
  PackedBins packed;

  explicit BinnedFixture(Dataset d, int max_bin = 255)
      : data(std::move(d)),
        mapper(BinMapper::fit(DataView(data), max_bin)),
        packed(mapper.encode_packed(DataView(data))) {}
};

Dataset random_regression_data(Rng& rng) {
  SyntheticSpec spec;
  spec.task = Task::Regression;
  // Large enough that the root engages the parallel build/find gates.
  spec.n_rows = 400 + rng.uniform_index(600);
  spec.n_features = 4 + static_cast<int>(rng.uniform_index(8));
  spec.categorical_fraction = rng.uniform(0.0, 0.4);
  spec.missing_fraction = rng.uniform(0.0, 0.2);
  spec.nonlinearity = rng.uniform(0.0, 1.0);
  spec.seed = rng.next();
  return make_regression(spec);
}

Dataset random_classification_data(Rng& rng, int n_classes) {
  SyntheticSpec spec;
  spec.task = n_classes > 2 ? Task::MultiClassification : Task::BinaryClassification;
  spec.n_classes = n_classes;
  spec.n_rows = 400 + rng.uniform_index(600);
  spec.n_features = 4 + static_cast<int>(rng.uniform_index(8));
  spec.categorical_fraction = rng.uniform(0.0, 0.4);
  spec.missing_fraction = rng.uniform(0.0, 0.2);
  spec.seed = rng.next();
  return make_classification(spec);
}

GrowerParams random_grower_params(Rng& rng) {
  GrowerParams params;
  params.max_leaves = 4 + static_cast<int>(rng.uniform_index(61));
  params.min_samples_leaf = 1 + static_cast<int>(rng.uniform_index(5));
  params.reg_lambda = rng.uniform(1e-9, 2.0);
  params.reg_alpha = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.5) : 0.0;
  params.colsample_bylevel = rng.bernoulli(0.5) ? rng.uniform(0.4, 1.0) : 1.0;
  return params;
}

FLAML_PROP(ParallelGrowerProp, LeafWiseTreeBitIdentical, 8) {
  BinnedFixture fx(random_regression_data(prop.rng));
  const std::size_t n = fx.data.n_rows();
  std::vector<std::uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<double> grad(n), hess(n);
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] = -fx.data.label(i);
    hess[i] = 1.0;
  }
  std::vector<int> features(fx.data.n_cols());
  std::iota(features.begin(), features.end(), 0);
  GrowerParams params = random_grower_params(prop.rng);
  params.style = TreeStyle::LeafWise;
  const std::uint64_t seed = prop.rng.next();

  GradientTreeGrower grower(fx.mapper, fx.packed);
  Rng serial_rng(seed);
  const std::string serial =
      tree_string(grower.grow(rows, grad, hess, features, params, serial_rng));
  for (int n_threads : kThreadCounts) {
    params.n_threads = n_threads;
    Rng parallel_rng(seed);
    const std::string parallel =
        tree_string(grower.grow(rows, grad, hess, features, params, parallel_rng));
    EXPECT_EQ(parallel, serial) << "n_threads " << n_threads;
  }
}

FLAML_PROP(ParallelGrowerProp, ObliviousTreeBitIdentical, 8) {
  BinnedFixture fx(random_regression_data(prop.rng));
  const std::size_t n = fx.data.n_rows();
  std::vector<std::uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<double> grad(n), hess(n);
  for (std::size_t i = 0; i < n; ++i) {
    grad[i] = -fx.data.label(i);
    hess[i] = 1.0;
  }
  std::vector<int> features(fx.data.n_cols());
  std::iota(features.begin(), features.end(), 0);
  GrowerParams params = random_grower_params(prop.rng);
  params.style = TreeStyle::Oblivious;
  params.oblivious_depth = 3 + static_cast<int>(prop.rng.uniform_index(4));
  const std::uint64_t seed = prop.rng.next();

  GradientTreeGrower grower(fx.mapper, fx.packed);
  Rng serial_rng(seed);
  const std::string serial =
      tree_string(grower.grow(rows, grad, hess, features, params, serial_rng));
  for (int n_threads : kThreadCounts) {
    params.n_threads = n_threads;
    Rng parallel_rng(seed);
    const std::string parallel =
        tree_string(grower.grow(rows, grad, hess, features, params, parallel_rng));
    EXPECT_EQ(parallel, serial) << "n_threads " << n_threads;
  }
}

FLAML_PROP(ParallelGrowerProp, ClassTreeBitIdentical, 8) {
  const int n_classes = 2 + static_cast<int>(prop.rng.uniform_index(3));
  BinnedFixture fx(random_classification_data(prop.rng, n_classes));
  const std::size_t n = fx.data.n_rows();
  std::vector<std::uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(fx.data.label(i));
  }
  std::vector<double> weights;
  if (prop.rng.bernoulli(0.4)) {
    weights.resize(n);
    for (double& w : weights) w = prop.rng.uniform(0.1, 2.0);
  }
  ClassGrowerParams params;
  params.max_leaves = 8 + static_cast<int>(prop.rng.uniform_index(120));
  params.min_samples_leaf = 1 + static_cast<int>(prop.rng.uniform_index(4));
  params.max_features = prop.rng.bernoulli(0.5) ? prop.rng.uniform(0.4, 1.0) : 1.0;
  params.criterion =
      prop.rng.bernoulli(0.5) ? SplitCriterion::Gini : SplitCriterion::Entropy;
  // extra_random exercises the serially pre-drawn threshold path.
  params.extra_random = prop.rng.bernoulli(0.4);
  const std::uint64_t seed = prop.rng.next();

  ClassTreeGrower grower(fx.mapper, fx.packed, n_classes);
  Rng serial_rng(seed);
  const std::string serial =
      tree_string(grower.grow(rows, labels, weights, params, serial_rng));
  for (int n_threads : kThreadCounts) {
    params.n_threads = n_threads;
    Rng parallel_rng(seed);
    const std::string parallel =
        tree_string(grower.grow(rows, labels, weights, params, parallel_rng));
    EXPECT_EQ(parallel, serial) << "n_threads " << n_threads;
  }
}

FLAML_PROP(ParallelGrowerProp, ForestModelBitIdentical, 6) {
  const bool classification = prop.rng.bernoulli(0.5);
  Dataset data = classification
                     ? random_classification_data(
                           prop.rng, 2 + static_cast<int>(prop.rng.uniform_index(2)))
                     : random_regression_data(prop.rng);
  DataView view(data);
  ForestParams params;
  params.n_trees = 3 + static_cast<int>(prop.rng.uniform_index(8));
  params.max_features = prop.rng.uniform(0.4, 1.0);
  params.extra_trees = prop.rng.bernoulli(0.4);
  params.seed = prop.rng.next() | 1;

  params.n_threads = 1;
  ForestModel serial = train_forest(view, params);
  std::ostringstream serial_os;
  serial.save(serial_os);
  const Predictions serial_pred = serial.predict(view);

  for (int n_threads : kThreadCounts) {
    params.n_threads = n_threads;
    ForestModel parallel = train_forest(view, params);
    std::ostringstream parallel_os;
    parallel.save(parallel_os);
    EXPECT_EQ(parallel_os.str(), serial_os.str()) << "n_threads " << n_threads;
    // Row-sharded prediction must match the serial accumulation bit for bit.
    const Predictions parallel_pred = parallel.predict(view, n_threads);
    ASSERT_EQ(parallel_pred.values.size(), serial_pred.values.size());
    for (std::size_t i = 0; i < serial_pred.values.size(); ++i) {
      EXPECT_EQ(parallel_pred.values[i], serial_pred.values[i])
          << "n_threads " << n_threads << " row-slot " << i;
    }
  }
}

FLAML_PROP(ParallelGrowerProp, GbdtModelBitIdentical, 6) {
  const bool classification = prop.rng.bernoulli(0.5);
  Dataset data = classification
                     ? random_classification_data(
                           prop.rng, 2 + static_cast<int>(prop.rng.uniform_index(2)))
                     : random_regression_data(prop.rng);
  DataView view(data);
  GBDTParams params;
  params.n_trees = 3 + static_cast<int>(prop.rng.uniform_index(6));
  params.max_leaves = 4 + static_cast<int>(prop.rng.uniform_index(29));
  params.learning_rate = prop.rng.uniform(0.05, 0.3);
  params.subsample = prop.rng.bernoulli(0.5) ? prop.rng.uniform(0.7, 1.0) : 1.0;
  params.colsample_bytree = prop.rng.bernoulli(0.5) ? prop.rng.uniform(0.7, 1.0) : 1.0;
  params.colsample_bylevel = prop.rng.bernoulli(0.5) ? prop.rng.uniform(0.6, 1.0) : 1.0;
  params.tree_style =
      prop.rng.bernoulli(0.3) ? TreeStyle::Oblivious : TreeStyle::LeafWise;
  params.seed = prop.rng.next() | 1;

  params.n_threads = 1;
  GBDTModel serial = train_gbdt(view, nullptr, params);
  const std::string serial_str = serial.to_string();
  const std::vector<double> serial_scores = serial.raw_scores(view);

  for (int n_threads : kThreadCounts) {
    params.n_threads = n_threads;
    GBDTModel parallel = train_gbdt(view, nullptr, params);
    EXPECT_EQ(parallel.to_string(), serial_str) << "n_threads " << n_threads;
    const std::vector<double> parallel_scores = parallel.raw_scores(view, n_threads);
    ASSERT_EQ(parallel_scores.size(), serial_scores.size());
    for (std::size_t i = 0; i < serial_scores.size(); ++i) {
      EXPECT_EQ(parallel_scores[i], serial_scores[i])
          << "n_threads " << n_threads << " slot " << i;
    }
  }
}

}  // namespace
}  // namespace flaml
