#include "tree/tree.h"

#include <gtest/gtest.h>

#include <limits>

namespace flaml {
namespace {

const float kNaN = std::numeric_limits<float>::quiet_NaN();

Dataset two_feature_data() {
  Dataset data(Task::Regression, {{"x", ColumnType::Numeric, 0},
                                  {"c", ColumnType::Categorical, 3}});
  data.add_row({1.0f, 0.0f}, 0.0);
  data.add_row({5.0f, 1.0f}, 0.0);
  data.add_row({kNaN, 2.0f}, 0.0);
  return data;
}

TEST(Tree, DefaultIsSingleLeafPredictingZero) {
  Tree tree;
  Dataset data = two_feature_data();
  EXPECT_EQ(tree.n_nodes(), 1u);
  EXPECT_EQ(tree.n_leaves(), 1u);
  EXPECT_EQ(tree.depth(), 1);
  EXPECT_DOUBLE_EQ(tree.predict_row(data, 0), 0.0);
}

TEST(Tree, SplitLeafCreatesChildren) {
  Tree tree;
  auto [left, right] = tree.split_leaf(0);
  EXPECT_EQ(tree.n_nodes(), 3u);
  EXPECT_EQ(tree.n_leaves(), 2u);
  EXPECT_EQ(left, 1);
  EXPECT_EQ(right, 2);
  EXPECT_FALSE(tree.node(0).is_leaf());
}

TEST(Tree, NumericRouting) {
  Tree tree;
  tree.node(0).feature = 0;
  tree.node(0).threshold = 3.0f;
  auto [left, right] = tree.split_leaf(0);
  tree.node(static_cast<std::size_t>(left)).leaf_value = -1.0;
  tree.node(static_cast<std::size_t>(right)).leaf_value = 1.0;
  Dataset data = two_feature_data();
  EXPECT_DOUBLE_EQ(tree.predict_row(data, 0), -1.0);  // 1.0 <= 3.0
  EXPECT_DOUBLE_EQ(tree.predict_row(data, 1), 1.0);   // 5.0 > 3.0
}

TEST(Tree, MissingRouting) {
  Tree tree;
  tree.node(0).feature = 0;
  tree.node(0).threshold = 3.0f;
  tree.node(0).missing_left = true;
  auto [left, right] = tree.split_leaf(0);
  tree.node(static_cast<std::size_t>(left)).leaf_value = -1.0;
  tree.node(static_cast<std::size_t>(right)).leaf_value = 1.0;
  Dataset data = two_feature_data();
  EXPECT_DOUBLE_EQ(tree.predict_row(data, 2), -1.0);  // NaN goes left
  tree.node(0).missing_left = false;
  EXPECT_DOUBLE_EQ(tree.predict_row(data, 2), 1.0);
}

TEST(Tree, CategoricalRouting) {
  Tree tree;
  tree.node(0).feature = 1;
  tree.node(0).categorical = true;
  tree.node(0).category = 1;
  auto [left, right] = tree.split_leaf(0);
  tree.node(static_cast<std::size_t>(left)).leaf_value = 10.0;
  tree.node(static_cast<std::size_t>(right)).leaf_value = 20.0;
  Dataset data = two_feature_data();
  EXPECT_DOUBLE_EQ(tree.predict_row(data, 0), 20.0);  // code 0 != 1
  EXPECT_DOUBLE_EQ(tree.predict_row(data, 1), 10.0);  // code 1 == 1
}

TEST(Tree, DepthOfChain) {
  Tree tree;
  tree.node(0).feature = 0;
  auto [l1, r1] = tree.split_leaf(0);
  (void)r1;
  tree.node(static_cast<std::size_t>(l1)).feature = 0;
  tree.split_leaf(l1);
  EXPECT_EQ(tree.depth(), 3);
  EXPECT_EQ(tree.n_leaves(), 3u);
}

TEST(TreeFromNodes, RoundTripsValidTree) {
  Tree tree;
  tree.node(0).feature = 0;
  tree.node(0).threshold = 1.0f;
  auto [l, r] = tree.split_leaf(0);
  tree.node(static_cast<std::size_t>(l)).leaf_value = 5.0;
  tree.node(static_cast<std::size_t>(r)).leaf_value = 7.0;

  std::vector<TreeNode> nodes;
  for (std::size_t i = 0; i < tree.n_nodes(); ++i) nodes.push_back(tree.node(i));
  Tree rebuilt = Tree::from_nodes(nodes);
  Dataset data = two_feature_data();
  for (std::size_t row = 0; row < 2; ++row) {
    EXPECT_DOUBLE_EQ(rebuilt.predict_row(data, row), tree.predict_row(data, row));
  }
}

TEST(TreeFromNodes, RejectsOutOfRangeChild) {
  std::vector<TreeNode> nodes(1);
  nodes[0].left = 5;
  nodes[0].right = 6;
  nodes[0].feature = 0;
  EXPECT_THROW(Tree::from_nodes(nodes), InvalidArgument);
}

TEST(TreeFromNodes, RejectsOrphanNode) {
  std::vector<TreeNode> nodes(2);  // node 1 has no parent
  EXPECT_THROW(Tree::from_nodes(nodes), InvalidArgument);
}

TEST(TreeFromNodes, RejectsEmpty) {
  EXPECT_THROW(Tree::from_nodes({}), InvalidArgument);
}

}  // namespace
}  // namespace flaml
