#include "forest/forest.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/split.h"
#include "metrics/metrics.h"

namespace flaml {
namespace {

Dataset binary_data(std::size_t n = 500, std::uint64_t seed = 1) {
  SyntheticSpec spec;
  spec.task = Task::BinaryClassification;
  spec.n_rows = n;
  spec.n_features = 8;
  spec.class_sep = 1.5;
  spec.seed = seed;
  return make_classification(spec);
}

TEST(Forest, BinaryClassifierBeatsChance) {
  Dataset data = binary_data();
  Rng rng(1);
  auto split = holdout_split(DataView(data), 0.3, rng);
  ForestParams params;
  params.n_trees = 30;
  params.max_features = 0.7;
  ForestModel model = train_forest(split.train, params);
  Predictions pred = model.predict(split.test);
  EXPECT_GT(roc_auc(pred.prob1(), split.test.labels()), 0.85);
}

TEST(Forest, ProbabilitiesNormalized) {
  SyntheticSpec spec;
  spec.task = Task::MultiClassification;
  spec.n_classes = 3;
  spec.n_rows = 300;
  spec.n_features = 5;
  Dataset data = make_classification(spec);
  ForestParams params;
  params.n_trees = 10;
  ForestModel model = train_forest(DataView(data), params);
  Predictions pred = model.predict(DataView(data));
  for (std::size_t i = 0; i < pred.n_rows(); ++i) {
    double sum = 0.0;
    for (int c = 0; c < 3; ++c) {
      EXPECT_GE(pred.prob(i, c), 0.0);
      sum += pred.prob(i, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Forest, RegressionFitsFriedman) {
  Dataset data = make_friedman1(700, 8, 0.5, 5);
  Rng rng(2);
  auto split = holdout_split(DataView(data), 0.25, rng);
  ForestParams params;
  params.n_trees = 40;
  params.max_features = 0.8;
  ForestModel model = train_forest(split.train, params);
  Predictions pred = model.predict(split.test);
  EXPECT_GT(r2(pred.values, split.test.labels()), 0.6);
}

TEST(Forest, ExtraTreesLearns) {
  Dataset data = binary_data(500, 7);
  Rng rng(3);
  auto split = holdout_split(DataView(data), 0.3, rng);
  ForestParams params;
  params.n_trees = 30;
  params.extra_trees = true;
  params.max_features = 0.7;
  ForestModel model = train_forest(split.train, params);
  Predictions pred = model.predict(split.test);
  EXPECT_GT(roc_auc(pred.prob1(), split.test.labels()), 0.8);
}

TEST(Forest, MoreTreesReduceVariance) {
  // Forests with different seeds agree more with many trees than few.
  // Averaged over several seed pairs: any single pair can invert by luck.
  Dataset data = binary_data(400, 11);
  DataView view(data);
  auto avg_disagreement = [&](int n_trees) {
    double total = 0.0;
    int pairs = 0;
    for (std::uint64_t seed = 100; seed <= 900; seed += 200, ++pairs) {
      ForestParams a, b;
      a.n_trees = b.n_trees = n_trees;
      a.max_features = b.max_features = 0.5;
      a.seed = seed;
      b.seed = seed + 100;
      Predictions pa = train_forest(view, a).predict(view);
      Predictions pb = train_forest(view, b).predict(view);
      double diff = 0.0;
      for (std::size_t i = 0; i < pa.values.size(); ++i) {
        diff += std::fabs(pa.values[i] - pb.values[i]);
      }
      total += diff / static_cast<double>(pa.values.size());
    }
    return total / static_cast<double>(pairs);
  };
  EXPECT_LT(avg_disagreement(40), avg_disagreement(1));
}

TEST(Forest, EntropyCriterionWorks) {
  Dataset data = binary_data(400, 13);
  ForestParams params;
  params.n_trees = 15;
  params.criterion = SplitCriterion::Entropy;
  ForestModel model = train_forest(DataView(data), params);
  Predictions pred = model.predict(DataView(data));
  EXPECT_GT(roc_auc(pred.prob1(), data.labels()), 0.9);  // training fit
}

TEST(Forest, TimeCapBoundsTreeCount) {
  Dataset data = binary_data(2000, 17);
  ForestParams params;
  params.n_trees = 100000;
  params.max_seconds = 0.1;
  ForestModel model = train_forest(DataView(data), params);
  EXPECT_GE(model.n_trees(), 1u);
  EXPECT_LT(model.n_trees(), 100000u);
}

TEST(Forest, PredictBeforeTrainRejected) {
  Dataset data = binary_data(50);
  ForestModel model;
  EXPECT_THROW(model.predict(DataView(data)), InvalidArgument);
}

TEST(Forest, RejectsZeroTrees) {
  Dataset data = binary_data(50);
  ForestParams params;
  params.n_trees = 0;
  EXPECT_THROW(train_forest(DataView(data), params), InvalidArgument);
}

// One leaf-budget meaning for both tasks: fewer than 2 leaves is an error,
// never "unlimited" (classification) or "a single leaf" (regression).
TEST(Forest, RejectsLeafBudgetBelowTwo) {
  Dataset binary = binary_data(50);
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = 50;
  Dataset regression = make_regression(spec);
  for (int max_leaves : {1, 0, -1}) {
    ForestParams params;
    params.n_trees = 2;
    params.max_leaves = max_leaves;
    EXPECT_THROW(train_forest(DataView(binary), params), InvalidArgument)
        << "classification max_leaves " << max_leaves;
    EXPECT_THROW(train_forest(DataView(regression), params), InvalidArgument)
        << "regression max_leaves " << max_leaves;
  }
  ForestParams params;
  params.n_trees = 2;
  params.max_leaves = 2;
  const ForestModel model = train_forest(DataView(regression), params);
  EXPECT_EQ(model.n_trees(), 2u);
}

}  // namespace
}  // namespace flaml
