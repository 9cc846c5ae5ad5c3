// Fixed-bit pins for the two tree growers. Every case grows a few trees on
// a ≥2,000-row synthetic matrix and folds each node's fields (structure,
// feature, threshold/category bits, missing direction, leaf value, split
// gain) and every leaf class distribution into one FNV-1a 64 digest. The
// digest must equal its constant at 1 and at 4 threads.
//
// The row count is chosen so that one tree runs both sides of the growers'
// 256-row cutoffs: large leaves retain (and subtract / inherit) histograms,
// small ones rebuild (gradient) or take the compact scan (class). The other
// grower tests compare paths against each other; these pin absolute bits,
// so any refactor of the growers that changes a single ulp or one RNG draw
// fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "data/generators.h"
#include "tree/class_grower.h"
#include "tree/grower.h"

namespace flaml {
namespace {

constexpr std::size_t kRows = 2400;
constexpr int kThreadCounts[] = {1, 4};

class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
  }
  template <typename T>
  void add(T v) {
    add_bytes(&v, sizeof v);
  }
  void add_tree(const Tree& tree) {
    add(static_cast<std::uint64_t>(tree.n_nodes()));
    for (std::size_t i = 0; i < tree.n_nodes(); ++i) {
      const TreeNode& n = tree.node(i);
      add(n.left);
      add(n.right);
      add(n.feature);
      add(static_cast<std::uint8_t>(n.categorical));
      add(n.threshold);
      add(n.category);
      add(static_cast<std::uint8_t>(n.missing_left));
      add(n.leaf_value);
      add(n.split_gain);
    }
    add(static_cast<std::uint64_t>(tree.leaf_distributions().size()));
    for (const auto& dist : tree.leaf_distributions()) {
      add(static_cast<std::uint64_t>(dist.size()));
      for (double d : dist) add(d);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Fixture {
  Dataset data;
  BinMapper mapper;
  BinnedMatrix binned;

  explicit Fixture(Dataset d)
      : data(std::move(d)),
        mapper(BinMapper::fit(DataView(data), 255)),
        binned(mapper.encode(DataView(data))) {}
};

Fixture regression_fixture() {
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = kRows;
  spec.n_features = 12;
  spec.categorical_fraction = 0.25;
  spec.missing_fraction = 0.08;
  spec.nonlinearity = 0.7;
  spec.seed = 2024;
  return Fixture(make_regression(spec));
}

Fixture classification_fixture(int n_classes) {
  SyntheticSpec spec;
  spec.task = n_classes > 2 ? Task::MultiClassification : Task::BinaryClassification;
  spec.n_classes = n_classes;
  spec.n_rows = kRows;
  spec.n_features = 10;
  spec.categorical_fraction = 0.2;
  spec.missing_fraction = 0.06;
  spec.label_noise = 0.1;
  spec.seed = 77 + static_cast<std::uint64_t>(n_classes);
  return Fixture(make_classification(spec));
}

std::vector<std::uint32_t> all_rows(std::size_t n) {
  std::vector<std::uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

// Sorted bootstrap sample (duplicates kept), the way forests draw rows.
std::vector<std::uint32_t> bootstrap_rows(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint32_t> rows(n);
  for (auto& r : rows) r = static_cast<std::uint32_t>(rng.uniform_index(n));
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct GradCase {
  GrowerParams params;
  bool unit_hess = true;
  bool bootstrap = false;
  bool feature_subset = false;
};

// Three trees, boosting-style: each tree's leaf values update the
// predictions the next tree's gradients come from.
std::uint64_t grad_digest(const Fixture& fx, GradCase c, int n_threads) {
  const std::size_t n = fx.data.n_rows();
  const std::vector<std::uint32_t> rows =
      c.bootstrap ? bootstrap_rows(n, 5) : all_rows(n);
  std::vector<int> features(fx.data.n_cols());
  std::iota(features.begin(), features.end(), 0);
  if (c.feature_subset) {
    features.erase(features.begin() + 1);
    features.erase(features.begin() + 4);
  }
  c.params.n_threads = n_threads;
  GradientTreeGrower grower(fx.mapper, fx.binned);
  std::vector<double> pred(n, 0.0), grad(n), hess(n);
  Rng rng(99);
  Digest d;
  for (int t = 0; t < 3; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      if (c.unit_hess) {
        grad[i] = pred[i] - fx.data.label(i);
        hess[i] = 1.0;
      } else {
        // Logistic loss against a thresholded target.
        const double y = fx.data.label(i) > 0.0 ? 1.0 : 0.0;
        const double p = 1.0 / (1.0 + std::exp(-pred[i]));
        grad[i] = p - y;
        hess[i] = std::max(p * (1.0 - p), 1e-16);
      }
    }
    const Tree tree = grower.grow(rows, grad, hess, features, c.params, rng);
    d.add_tree(tree);
    for (std::size_t i = 0; i < n; ++i) pred[i] += 0.3 * tree.predict_row(fx.data, i);
  }
  return d.value();
}

struct ClassCase {
  int n_classes = 2;
  ClassGrowerParams params;
  bool weighted = false;
  bool bootstrap = false;
};

std::uint64_t class_digest(const Fixture& fx, ClassCase c, int n_threads) {
  const std::size_t n = fx.data.n_rows();
  const std::vector<std::uint32_t> rows =
      c.bootstrap ? bootstrap_rows(n, 11) : all_rows(n);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(fx.data.label(i));
  std::vector<double> weights;
  if (c.weighted) {
    Rng wrng(3);
    weights.resize(n);
    for (double& w : weights) w = wrng.uniform(0.2, 3.0);
  }
  c.params.n_threads = n_threads;
  ClassTreeGrower grower(fx.mapper, fx.binned, c.n_classes);
  Rng rng(123);
  Digest d;
  for (int t = 0; t < 3; ++t) {
    d.add_tree(grower.grow(rows, labels, weights, c.params, rng));
  }
  return d.value();
}

void expect_grad(const Fixture& fx, const GradCase& c, std::uint64_t want) {
  for (int n_threads : kThreadCounts) {
    const std::uint64_t got = grad_digest(fx, c, n_threads);
    EXPECT_EQ(got, want) << "n_threads " << n_threads << ": got 0x" << std::hex
                         << got;
  }
}

void expect_class(const Fixture& fx, const ClassCase& c, std::uint64_t want) {
  for (int n_threads : kThreadCounts) {
    const std::uint64_t got = class_digest(fx, c, n_threads);
    EXPECT_EQ(got, want) << "n_threads " << n_threads << ": got 0x" << std::hex
                         << got;
  }
}

TEST(GrowerDigest, LeafWiseDepthColsampleUnitHess) {
  const Fixture fx = regression_fixture();
  GradCase c;
  c.params.max_leaves = 63;
  c.params.max_depth = 7;
  c.params.colsample_bylevel = 0.6;
  c.params.min_samples_leaf = 3;
  c.params.reg_alpha = 0.1;
  expect_grad(fx, c, 0xa8c7ae9ae2ecc903ULL);
}

TEST(GrowerDigest, LeafWiseManyLeavesNonUnitHess) {
  const Fixture fx = regression_fixture();
  GradCase c;
  c.params.max_leaves = 200;
  c.params.reg_lambda = 0.5;
  c.unit_hess = false;
  c.bootstrap = true;
  c.feature_subset = true;
  expect_grad(fx, c, 0x32828589167b1bb9ULL);
}

TEST(GrowerDigest, ObliviousUnitHess) {
  const Fixture fx = regression_fixture();
  GradCase c;
  c.params.style = TreeStyle::Oblivious;
  c.params.oblivious_depth = 6;
  c.params.colsample_bylevel = 0.75;
  expect_grad(fx, c, 0x0c91ded0bf79c7c3ULL);
}

TEST(GrowerDigest, ObliviousNonUnitHess) {
  const Fixture fx = regression_fixture();
  GradCase c;
  c.params.style = TreeStyle::Oblivious;
  c.params.oblivious_depth = 5;
  c.unit_hess = false;
  c.bootstrap = true;
  expect_grad(fx, c, 0x1482d9046f9f8741ULL);
}

TEST(GrowerDigest, ClassGiniBinaryMaxFeatures) {
  const Fixture fx = classification_fixture(2);
  ClassCase c;
  c.params.max_features = 0.5;
  c.bootstrap = true;
  expect_class(fx, c, 0xd59236668d05dcf9ULL);
}

TEST(GrowerDigest, ClassEntropyThreeClassWeighted) {
  const Fixture fx = classification_fixture(3);
  ClassCase c;
  c.n_classes = 3;
  c.params.criterion = SplitCriterion::Entropy;
  c.params.max_leaves = 300;
  c.weighted = true;
  expect_class(fx, c, 0x4d5f22bad4f87556ULL);
}

TEST(GrowerDigest, ClassExtraRandomThreeClass) {
  const Fixture fx = classification_fixture(3);
  ClassCase c;
  c.n_classes = 3;
  c.params.extra_random = true;
  c.params.max_features = 0.7;
  c.bootstrap = true;
  expect_class(fx, c, 0x8dc27893e32ee57aULL);
}

TEST(GrowerDigest, ClassExtraRandomEntropyWeightedDepth) {
  const Fixture fx = classification_fixture(2);
  ClassCase c;
  c.params.criterion = SplitCriterion::Entropy;
  c.params.extra_random = true;
  c.params.max_depth = 9;
  c.params.min_samples_leaf = 4;
  c.weighted = true;
  expect_class(fx, c, 0x7a08ecd89140f84cULL);
}

}  // namespace
}  // namespace flaml
