#include "tree/tree.h"

#include <algorithm>

#include "common/error.h"

namespace flaml {

Tree Tree::from_nodes(std::vector<TreeNode> nodes) {
  FLAML_REQUIRE(!nodes.empty(), "tree needs at least one node");
  std::vector<int> parents(nodes.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& n = nodes[i];
    if (n.is_leaf()) continue;
    FLAML_REQUIRE(n.left > 0 && n.right > 0 &&
                      static_cast<std::size_t>(n.left) < nodes.size() &&
                      static_cast<std::size_t>(n.right) < nodes.size(),
                  "tree child index out of range");
    parents[static_cast<std::size_t>(n.left)] += 1;
    parents[static_cast<std::size_t>(n.right)] += 1;
  }
  FLAML_REQUIRE(parents[0] == 0, "tree root must have no parent");
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    FLAML_REQUIRE(parents[i] == 1, "tree node " << i << " has " << parents[i]
                                                << " parents");
  }
  Tree tree;
  tree.nodes_ = std::move(nodes);
  return tree;
}

std::size_t Tree::n_leaves() const {
  std::size_t count = 0;
  for (const auto& n : nodes_) count += n.is_leaf() ? 1u : 0u;
  return count;
}

int Tree::depth() const {
  // Iterative depth computation over the node array.
  std::vector<std::pair<std::int32_t, int>> stack{{0, 1}};
  int max_depth = 0;
  while (!stack.empty()) {
    auto [idx, d] = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<std::size_t>(idx)];
    if (n.is_leaf()) {
      max_depth = std::max(max_depth, d);
    } else {
      stack.emplace_back(n.left, d + 1);
      stack.emplace_back(n.right, d + 1);
    }
  }
  return max_depth;
}

std::pair<std::int32_t, std::int32_t> Tree::split_leaf(std::int32_t node_index) {
  FLAML_CHECK(node_index >= 0 &&
              static_cast<std::size_t>(node_index) < nodes_.size());
  FLAML_CHECK_MSG(nodes_[static_cast<std::size_t>(node_index)].is_leaf(),
                  "split_leaf on an internal node");
  std::int32_t left = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  std::int32_t right = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_index)].left = left;
  nodes_[static_cast<std::size_t>(node_index)].right = right;
  return {left, right};
}

std::int32_t Tree::leaf_index(const Dataset& data, std::size_t row) const {
  std::int32_t idx = 0;
  for (;;) {
    const TreeNode& n = nodes_[static_cast<std::size_t>(idx)];
    if (n.is_leaf()) return idx;
    float v = data.value(row, static_cast<std::size_t>(n.feature));
    bool go_left;
    if (Dataset::is_missing(v)) {
      go_left = n.missing_left;
    } else if (n.categorical) {
      go_left = static_cast<std::int32_t>(v) == n.category;
    } else {
      go_left = v <= n.threshold;
    }
    idx = go_left ? n.left : n.right;
  }
}

void Tree::add_feature_gains(std::vector<double>& gains) const {
  for (const auto& n : nodes_) {
    if (n.is_leaf()) continue;
    FLAML_CHECK(n.feature >= 0 &&
                static_cast<std::size_t>(n.feature) < gains.size());
    gains[static_cast<std::size_t>(n.feature)] += n.split_gain;
  }
}

}  // namespace flaml
