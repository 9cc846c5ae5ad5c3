// Impurity-based classification tree growing (random forest / extra trees).
//
// Splits maximize count-weighted impurity decrease under gini or entropy
// (Table 5's `split criterion` hyperparameter). Leaves store the class
// distribution of their training rows (Tree::leaf_distributions). Extra
// trees mode evaluates one random threshold per candidate feature instead
// of scanning all thresholds.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tree/binning.h"
#include "tree/tree.h"

namespace flaml {

enum class SplitCriterion { Gini, Entropy };

struct ClassGrowerParams {
  int max_leaves = 512;
  int max_depth = 0;  // 0 = unlimited
  int min_samples_leaf = 1;
  double min_gain = 1e-12;
  // Fraction of features considered per split (RF's max_features).
  double max_features = 1.0;
  SplitCriterion criterion = SplitCriterion::Gini;
  // Extra-trees randomization: a single random cut per candidate feature.
  bool extra_random = false;
  // Intra-tree parallelism over feature blocks on the shared_pool(). Any
  // value produces the bit-identical tree (fixed-order reduction; random
  // thresholds are pre-drawn in feature order).
  int n_threads = 1;
};

class ClassTreeGrower {
 public:
  // `mapper`/`packed` describe the training rows; both must outlive the
  // grower.
  ClassTreeGrower(const BinMapper& mapper, const PackedBins& packed, int n_classes);

  // Grow one tree on `rows` (positions into the packed codes);
  // `labels[pos]` is the class id of position pos.
  Tree grow(const std::vector<std::uint32_t>& rows, const std::vector<int>& labels,
            const ClassGrowerParams& params, Rng& rng) const;

  // Weighted variant: `weights[pos]` scales each row's contribution to the
  // class counts (empty = unweighted).
  Tree grow(const std::vector<std::uint32_t>& rows, const std::vector<int>& labels,
            const std::vector<double>& weights, const ClassGrowerParams& params,
            Rng& rng) const;

 private:
  const BinMapper* mapper_;
  const PackedBins* packed_;
  int n_classes_;
};

}  // namespace flaml
