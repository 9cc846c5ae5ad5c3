// Decision-tree structure shared by all tree learners.
//
// Trees are stored as a flat node array. Internal nodes hold the raw-value
// split (numeric threshold or categorical one-vs-rest code) plus the
// direction for missing values, so prediction works directly on Dataset
// floats with no binning. Leaves hold a single scalar output (gradient
// boosting / regression) — classification forests attach per-class leaf
// distributions via `leaf_distribution`.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace flaml {

struct TreeNode {
  // -1 children mark a leaf.
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::int32_t feature = -1;
  // Numeric split: go left iff value <= threshold.
  // Categorical split: go left iff code == category.
  bool categorical = false;
  float threshold = 0.0f;
  std::int32_t category = -1;
  // true: missing values go left.
  bool missing_left = false;
  double leaf_value = 0.0;
  // Objective gain of this split (0 for leaves); drives feature importance.
  double split_gain = 0.0;

  bool is_leaf() const { return left < 0; }
};

class Tree {
 public:
  Tree() { nodes_.emplace_back(); }  // a single-leaf tree predicting 0

  // Build a tree from an explicit node array (deserialization). Validates
  // that children indices are in range and each non-root node has exactly
  // one parent; throws InvalidArgument otherwise.
  static Tree from_nodes(std::vector<TreeNode> nodes);

  std::size_t n_nodes() const { return nodes_.size(); }
  std::size_t n_leaves() const;
  int depth() const;
  const TreeNode& node(std::size_t i) const { return nodes_[i]; }
  TreeNode& node(std::size_t i) { return nodes_[i]; }

  // Turn leaf `node_index` into an internal node with two fresh leaves;
  // returns {left_index, right_index}.
  std::pair<std::int32_t, std::int32_t> split_leaf(std::int32_t node_index);

  // Index of the leaf reached by row `row` of `data`.
  std::int32_t leaf_index(const Dataset& data, std::size_t row) const;

  double predict_row(const Dataset& data, std::size_t row) const {
    return nodes_[static_cast<std::size_t>(leaf_index(data, row))].leaf_value;
  }

  // Accumulate per-feature split gains into `gains` (size >= any feature id
  // used by this tree).
  void add_feature_gains(std::vector<double>& gains) const;

  // Optional per-leaf distributions (indexed by node id), used by
  // classification forests. Empty when unused.
  std::vector<std::vector<double>>& leaf_distributions() { return leaf_dist_; }
  const std::vector<std::vector<double>>& leaf_distributions() const {
    return leaf_dist_;
  }

 private:
  std::vector<TreeNode> nodes_;
  std::vector<std::vector<double>> leaf_dist_;
};

}  // namespace flaml
