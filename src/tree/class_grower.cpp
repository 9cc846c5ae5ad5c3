#include "tree/class_grower.h"

#include <cmath>

#include "common/error.h"
#include "tree/histogram.h"
#include "tree/leafwise.h"

namespace flaml {

namespace {

using treegrow::GrowState;
using treegrow::kSmallLeafRows;
using treegrow::SplitInfo;

// Impurity of a class-count vector with total n (> 0), scaled by n so that
// gain = imp(parent) - imp(left) - imp(right) is count-weighted.
double weighted_impurity(const std::vector<double>& counts, double n,
                         SplitCriterion criterion) {
  if (n <= 0.0) return 0.0;
  if (criterion == SplitCriterion::Gini) {
    double sum_sq = 0.0;
    for (double c : counts) sum_sq += c * c;
    return n - sum_sq / n;  // n * (1 - sum p^2)
  }
  double ent = 0.0;
  for (double c : counts) {
    if (c > 0.0) ent -= c * std::log(c / n);
  }
  return ent;  // n * entropy (nats)
}

// Split statistics of impurity trees: weighted class counts per bin under
// gini/entropy. Leaves above kSmallLeafRows keep a [bin × class] histogram
// (the larger child inherits the parent's and removes the smaller child's
// rows); smaller leaves gather one feature at a time (compact scan) —
// deep forests would otherwise spend their time allocating and scanning
// mostly-empty bins×classes arrays.
class ClassPolicy {
 public:
  using Leaf = treegrow::Leaf<std::vector<double>, double>;
  struct Search {
    std::vector<int> feats;
    double parent_imp = 0.0;
    // Extra-trees threshold per candidate feature (-1 = no candidate).
    std::vector<int> random_bins;
  };
  // Per-evaluation scratch; each parallel shard owns one.
  struct Scratch {
    std::vector<double> left_counts;
    std::vector<double> right_counts;
    std::vector<double> compact_counts;  // gathered [bin*k+class] for small leaves
  };

  ClassPolicy(GrowState& s, int n_classes, const std::vector<int>& labels,
              const std::vector<double>& weights, const ClassGrowerParams& params)
      : s_(s), k_(n_classes), labels_(labels), weights_(weights), params_(params) {
    all_features_.resize(s.mapper.n_features());
    for (std::size_t f = 0; f < all_features_.size(); ++f) {
      all_features_[f] = static_cast<int>(f);
    }
  }

  std::vector<double> sum(const Leaf& leaf) const {
    std::vector<double> counts(static_cast<std::size_t>(k_), 0.0);
    const std::uint32_t* rows = s_.rows(leaf.begin);
    for (std::size_t i = 0; i < leaf.count; ++i) {
      counts[static_cast<std::size_t>(labels_[rows[i]])] +=
          weights_.empty() ? 1.0 : weights_[rows[i]];
    }
    return counts;
  }

  static std::vector<double> minus(const std::vector<double>& parent,
                                   const std::vector<double>& child) {
    std::vector<double> out(parent.size());
    for (std::size_t c = 0; c < out.size(); ++c) out[c] = parent[c] - child[c];
    return out;
  }

  void build_hist(Leaf& leaf) const {
    if (leaf.count <= kSmallLeafRows) return;
    build_class_histogram_packed(s_.packed, s_.offsets, k_, s_.rows(leaf.begin),
                                 leaf.count, labels_, weights_, leaf.hist,
                                 s_.kernel, s_.par());
  }

  // Inherit-and-remove: O(small × features) with no allocation.
  void derive_hist(Leaf& large, std::vector<double>&& parent, const Leaf& small) const {
    if (large.count <= kSmallLeafRows) return;
    large.hist = std::move(parent);
    remove_rows_from_class_histogram_packed(s_.packed, s_.offsets, k_,
                                            s_.rows(small.begin), small.count,
                                            labels_, weights_, large.hist,
                                            s_.kernel, s_.par());
  }

  bool prepare(const Leaf& leaf, Search& search) {
    if (leaf.count < 2 * static_cast<std::size_t>(params_.min_samples_leaf)) {
      return false;
    }
    // The impurity total is the WEIGHTED class mass, not the row count.
    double parent_total = 0.0;
    for (double c : leaf.stats) parent_total += c;
    search.parent_imp = weighted_impurity(leaf.stats, parent_total, params_.criterion);
    if (search.parent_imp <= params_.min_gain) return false;  // pure leaf

    search.feats = s_.sample_features(all_features_, params_.max_features);
    // Extra-trees thresholds come from the shared rng, so they are drawn
    // here, serially and in feature order, before any fan-out: the rng
    // stream is then identical no matter how evaluation is scheduled.
    if (params_.extra_random) {
      search.random_bins.assign(search.feats.size(), -1);
      for (std::size_t i = 0; i < search.feats.size(); ++i) {
        const FeatureBins& fb =
            s_.mapper.feature(static_cast<std::size_t>(search.feats[i]));
        if (fb.type != ColumnType::Categorical && fb.n_value_bins >= 2) {
          search.random_bins[i] = static_cast<int>(
              s_.rng.uniform_index(static_cast<std::uint64_t>(fb.n_value_bins - 1)));
        }
      }
    }
    return true;
  }

  SplitInfo eval(const Leaf& leaf, const Search& search, std::size_t i,
                 Scratch& scratch) const {
    SplitInfo best;
    const int f = search.feats[i];
    const std::size_t k = static_cast<std::size_t>(k_);
    const std::vector<double>& parent = leaf.stats;
    scratch.left_counts.assign(k, 0.0);
    scratch.right_counts.assign(k, 0.0);
    std::vector<double>& left_counts = scratch.left_counts;
    std::vector<double>& right_counts = scratch.right_counts;

    auto consider = [&](int bin, bool categorical, bool missing_left,
                        bool missing_only) {
      double nl = 0.0, nr = 0.0;
      for (std::size_t c = 0; c < k; ++c) {
        nl += left_counts[c];
        nr += right_counts[c];
      }
      if (nl < params_.min_samples_leaf || nr < params_.min_samples_leaf) return;
      double gain = search.parent_imp -
                    weighted_impurity(left_counts, nl, params_.criterion) -
                    weighted_impurity(right_counts, nr, params_.criterion);
      if (gain > best.gain && gain > params_.min_gain) {
        best = {gain, f, bin, categorical, missing_left, missing_only};
      }
    };

    const FeatureBins& fb = s_.mapper.feature(static_cast<std::size_t>(f));
    const double* hist;
    if (leaf.hist.empty()) {
      fill_feature_class_counts_packed(s_.packed, f, fb.n_bins(), k_,
                                       s_.rows(leaf.begin), leaf.count, labels_,
                                       weights_, scratch.compact_counts, s_.kernel);
      hist = scratch.compact_counts.data();
    } else {
      hist = leaf.hist.data() + s_.offsets[static_cast<std::size_t>(f)] * k;
    }
    auto bin_counts = [&](int b, std::size_t c) {
      return hist[static_cast<std::size_t>(b) * k + c];
    };

    if (fb.type == ColumnType::Categorical) {
      for (int b = 0; b < fb.n_value_bins; ++b) {
        double n_b = 0.0;
        for (std::size_t c = 0; c < k; ++c) n_b += bin_counts(b, c);
        if (n_b == 0.0) continue;
        for (std::size_t c = 0; c < k; ++c) {
          left_counts[c] = bin_counts(b, c);
          right_counts[c] = parent[c] - bin_counts(b, c);
        }
        consider(b, true, false, false);
      }
      return best;
    }

    if (params_.extra_random) {
      // One pre-drawn random threshold; < 0 means the feature had fewer than
      // two value bins and contributes no candidate.
      const int random_bin = search.random_bins[i];
      if (random_bin < 0) return best;
      for (int bb = 0; bb <= random_bin; ++bb) {
        for (std::size_t c = 0; c < k; ++c) left_counts[c] += bin_counts(bb, c);
      }
      for (std::size_t c = 0; c < k; ++c) right_counts[c] = parent[c] - left_counts[c];
      consider(random_bin, false, false, false);
      return best;
    }

    // Full scan; missing goes right (missing-left variant adds little for
    // forests and doubles the scan cost).
    for (int b = 0; b + 1 < fb.n_value_bins; ++b) {
      for (std::size_t c = 0; c < k; ++c) left_counts[c] += bin_counts(b, c);
      for (std::size_t c = 0; c < k; ++c) right_counts[c] = parent[c] - left_counts[c];
      consider(b, false, false, false);
    }
    // Missing-vs-known split when missing has mass.
    const int miss_bin = fb.missing_bin();
    double n_miss = 0.0;
    for (std::size_t c = 0; c < k; ++c) n_miss += bin_counts(miss_bin, c);
    if (n_miss > 0.0) {
      for (std::size_t c = 0; c < k; ++c) {
        right_counts[c] = bin_counts(miss_bin, c);
        left_counts[c] = parent[c] - right_counts[c];
      }
      consider(-1, false, false, true);
    }
    return best;
  }

  void fill_leaves(Tree& tree, const std::vector<Leaf>& leaves) const {
    auto& dists = tree.leaf_distributions();
    dists.assign(tree.n_nodes(), {});
    for (const Leaf& leaf : leaves) {
      std::vector<double> dist(leaf.stats);
      double total = 0.0;
      for (double c : leaf.stats) total += c;
      if (total <= 0.0) total = 1.0;
      for (double& d : dist) d /= total;
      dists[static_cast<std::size_t>(leaf.node)] = std::move(dist);
      // Binary trees also store P(class 1) as the scalar leaf value.
      if (k_ == 2) {
        tree.node(static_cast<std::size_t>(leaf.node)).leaf_value = leaf.stats[1] / total;
      }
    }
  }

 private:
  GrowState& s_;
  int k_;
  const std::vector<int>& labels_;
  const std::vector<double>& weights_;
  const ClassGrowerParams& params_;
  std::vector<int> all_features_;
};

}  // namespace

ClassTreeGrower::ClassTreeGrower(const BinMapper& mapper, const PackedBins& packed,
                                 int n_classes)
    : mapper_(&mapper), packed_(&packed), n_classes_(n_classes) {
  FLAML_REQUIRE(n_classes >= 2, "classification tree needs >= 2 classes");
}

Tree ClassTreeGrower::grow(const std::vector<std::uint32_t>& rows,
                           const std::vector<int>& labels,
                           const ClassGrowerParams& params, Rng& rng) const {
  static const std::vector<double> kNoWeights;
  return grow(rows, labels, kNoWeights, params, rng);
}

Tree ClassTreeGrower::grow(const std::vector<std::uint32_t>& rows,
                           const std::vector<int>& labels,
                           const std::vector<double>& weights,
                           const ClassGrowerParams& params, Rng& rng) const {
  FLAML_REQUIRE(!rows.empty(), "cannot grow a tree on zero rows");
  FLAML_REQUIRE(labels.size() == packed_->n_rows(),
                "labels must cover all binned rows");
  FLAML_REQUIRE(weights.empty() || weights.size() == packed_->n_rows(),
                "weights must cover all binned rows");
  GrowState state(*mapper_, *packed_, rows, params.n_threads, rng);
  ClassPolicy policy(state, n_classes_, labels, weights, params);
  return treegrow::grow_leaf_wise(
      state, policy, {params.max_leaves, params.max_depth, params.min_gain});
}

}  // namespace flaml
