#include "tree/grower.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "data/generators.h"

namespace flaml {
namespace {

// Helper: grow one regression tree fitting targets y via grad = -y, hess = 1
// (leaf value then equals the leaf's target mean; splits maximize variance
// reduction).
struct Fixture {
  explicit Fixture(const Dataset& data, int max_bin = 255)
      : view(data),
        mapper(BinMapper::fit(view, max_bin)),
        packed(mapper.encode_packed(view)) {}

  Tree fit(const std::vector<double>& y, GrowerParams params, std::uint64_t seed = 1) {
    std::vector<std::uint32_t> rows(view.n_rows());
    std::iota(rows.begin(), rows.end(), 0u);
    std::vector<double> grad(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) grad[i] = -y[i];
    std::vector<double> hess(y.size(), 1.0);
    std::vector<int> features(view.n_cols());
    std::iota(features.begin(), features.end(), 0);
    params.reg_lambda = 1e-9;
    params.min_child_weight = 0.0;
    GradientTreeGrower grower(mapper, packed);
    Rng rng(seed);
    return grower.grow(rows, grad, hess, features, params, rng);
  }

  DataView view;
  BinMapper mapper;
  PackedBins packed;
};

Dataset step_data() {
  // y = 10 for x <= 0, y = -10 for x > 0: one split suffices.
  Dataset data(Task::Regression, {{"x", ColumnType::Numeric, 0}});
  std::vector<float> x;
  std::vector<double> y;
  for (int i = -50; i < 50; ++i) {
    x.push_back(static_cast<float>(i) / 10.0f);
    y.push_back(i < 0 ? 10.0 : -10.0);
  }
  data.set_column(0, std::move(x));
  data.set_labels(std::move(y));
  return data;
}

TEST(GradientGrower, LearnsStepFunctionWithOneSplit) {
  Dataset data = step_data();
  Fixture fx(data);
  GrowerParams params;
  params.max_leaves = 2;
  Tree tree = fx.fit(data.labels(), params);
  EXPECT_EQ(tree.n_leaves(), 2u);
  for (std::size_t i = 0; i < data.n_rows(); ++i) {
    EXPECT_NEAR(tree.predict_row(data, i), data.label(i), 1e-6);
  }
}

TEST(GradientGrower, LeafValuesAreTargetMeans) {
  Dataset data = step_data();
  Fixture fx(data);
  GrowerParams params;
  params.max_leaves = 2;
  Tree tree = fx.fit(data.labels(), params);
  // Root is a split; both children predict exactly ±10.
  double lo = std::min(tree.node(1).leaf_value, tree.node(2).leaf_value);
  double hi = std::max(tree.node(1).leaf_value, tree.node(2).leaf_value);
  EXPECT_NEAR(lo, -10.0, 1e-6);
  EXPECT_NEAR(hi, 10.0, 1e-6);
}

class MaxLeavesTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxLeavesTest, LeafBudgetRespected) {
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = 500;
  spec.n_features = 6;
  spec.seed = 3;
  Dataset data = make_regression(spec);
  Fixture fx(data);
  GrowerParams params;
  params.max_leaves = GetParam();
  Tree tree = fx.fit(data.labels(), params);
  EXPECT_LE(tree.n_leaves(), static_cast<std::size_t>(GetParam()));
  EXPECT_GE(tree.n_leaves(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Budgets, MaxLeavesTest, ::testing::Values(2, 4, 16, 64));

TEST(GradientGrower, MaxDepthRespected) {
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = 500;
  spec.n_features = 6;
  Dataset data = make_regression(spec);
  Fixture fx(data);
  GrowerParams params;
  params.max_leaves = 256;
  params.max_depth = 3;
  Tree tree = fx.fit(data.labels(), params);
  EXPECT_LE(tree.depth(), 3);
}

TEST(GradientGrower, MinSamplesLeafRespected) {
  Dataset data = step_data();
  Fixture fx(data);
  GrowerParams params;
  params.max_leaves = 64;
  params.min_samples_leaf = 20;
  Tree tree = fx.fit(data.labels(), params);
  // Count rows per leaf.
  std::vector<int> counts(tree.n_nodes(), 0);
  for (std::size_t i = 0; i < data.n_rows(); ++i) {
    counts[static_cast<std::size_t>(tree.leaf_index(data, i))] += 1;
  }
  for (std::size_t n = 0; n < tree.n_nodes(); ++n) {
    if (tree.node(n).is_leaf()) EXPECT_GE(counts[n], 20);
  }
}

TEST(GradientGrower, MoreLeavesNeverWorseTrainingFit) {
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = 400;
  spec.n_features = 5;
  spec.seed = 11;
  Dataset data = make_regression(spec);
  Fixture fx(data);
  double prev_sse = std::numeric_limits<double>::infinity();
  for (int leaves : {2, 4, 8, 32, 128}) {
    GrowerParams params;
    params.max_leaves = leaves;
    Tree tree = fx.fit(data.labels(), params);
    double sse = 0.0;
    for (std::size_t i = 0; i < data.n_rows(); ++i) {
      double d = tree.predict_row(data, i) - data.label(i);
      sse += d * d;
    }
    EXPECT_LE(sse, prev_sse + 1e-9) << leaves << " leaves";
    prev_sse = sse;
  }
}

TEST(GradientGrower, CategoricalSplitUsed) {
  // Target depends only on a categorical code; the tree must use equality
  // splits on it.
  Dataset data(Task::Regression, {{"c", ColumnType::Categorical, 3}});
  std::vector<float> codes;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    int code = i % 3;
    codes.push_back(static_cast<float>(code));
    y.push_back(code == 1 ? 5.0 : -2.0);
  }
  data.set_column(0, std::move(codes));
  data.set_labels(std::move(y));
  Fixture fx(data);
  GrowerParams params;
  params.max_leaves = 4;
  Tree tree = fx.fit(data.labels(), params);
  for (std::size_t i = 0; i < data.n_rows(); ++i) {
    EXPECT_NEAR(tree.predict_row(data, i), data.label(i), 1e-6);
  }
  EXPECT_TRUE(tree.node(0).categorical);
}

TEST(GradientGrower, MissingValuesRoutedByGain) {
  // Rows with missing x have a distinct target; the split must learn to
  // send missing to its own side.
  Dataset data(Task::Regression, {{"x", ColumnType::Numeric, 0}});
  std::vector<float> x;
  std::vector<double> y;
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  for (int i = 0; i < 200; ++i) {
    if (i % 4 == 0) {
      x.push_back(kNaN);
      y.push_back(50.0);
    } else {
      x.push_back(static_cast<float>(i % 10));
      y.push_back(0.0);
    }
  }
  data.set_column(0, std::move(x));
  data.set_labels(std::move(y));
  Fixture fx(data);
  GrowerParams params;
  params.max_leaves = 4;
  Tree tree = fx.fit(data.labels(), params);
  double sse = 0.0;
  for (std::size_t i = 0; i < data.n_rows(); ++i) {
    double d = tree.predict_row(data, i) - data.label(i);
    sse += d * d;
  }
  EXPECT_LT(sse / static_cast<double>(data.n_rows()), 1.0);
}

TEST(GradientGrower, ObliviousTreeIsSymmetric) {
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = 600;
  spec.n_features = 6;
  spec.seed = 13;
  Dataset data = make_regression(spec);
  Fixture fx(data);
  GrowerParams params;
  params.style = TreeStyle::Oblivious;
  params.oblivious_depth = 4;
  Tree tree = fx.fit(data.labels(), params);
  // A depth-d oblivious tree has exactly 2^d leaves and every level shares
  // one split feature.
  EXPECT_EQ(tree.n_leaves(), 16u);
  EXPECT_EQ(tree.depth(), 5);  // 4 internal levels + leaf level
}

TEST(GradientGrower, ObliviousFitsStepFunction) {
  Dataset data = step_data();
  Fixture fx(data);
  GrowerParams params;
  params.style = TreeStyle::Oblivious;
  params.oblivious_depth = 2;
  Tree tree = fx.fit(data.labels(), params);
  double sse = 0.0;
  for (std::size_t i = 0; i < data.n_rows(); ++i) {
    double d = tree.predict_row(data, i) - data.label(i);
    sse += d * d;
  }
  EXPECT_LT(sse / static_cast<double>(data.n_rows()), 1.0);
}

TEST(GradientGrower, PureTargetsYieldSingleLeaf) {
  Dataset data(Task::Regression, {{"x", ColumnType::Numeric, 0}});
  data.set_column(0, {1.0f, 2.0f, 3.0f, 4.0f});
  data.set_labels({7.0, 7.0, 7.0, 7.0});
  Fixture fx(data);
  GrowerParams params;
  params.max_leaves = 8;
  Tree tree = fx.fit(data.labels(), params);
  EXPECT_EQ(tree.n_leaves(), 1u);
  EXPECT_NEAR(tree.predict_row(data, 0), 7.0, 1e-6);
}

TEST(GradientGrower, RejectsEmptyRows) {
  Dataset data = step_data();
  Fixture fx(data);
  GradientTreeGrower grower(fx.mapper, fx.packed);
  std::vector<double> grad(data.n_rows(), 0.0), hess(data.n_rows(), 1.0);
  std::vector<int> features{0};
  GrowerParams params;
  Rng rng(1);
  EXPECT_THROW(grower.grow({}, grad, hess, features, params, rng), InvalidArgument);
}

}  // namespace
}  // namespace flaml
