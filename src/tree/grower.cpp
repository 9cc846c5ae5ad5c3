#include "tree/grower.h"

#include <algorithm>

#include "common/error.h"
#include "tree/histogram.h"
#include "tree/leafwise.h"

namespace flaml {

namespace {

using treegrow::GrowState;
using treegrow::SplitInfo;

double thresholded(double g, double alpha) {
  if (g > alpha) return g - alpha;
  if (g < -alpha) return g + alpha;
  return 0.0;
}

double leaf_score(double g, double h, const GrowerParams& p) {
  double t = thresholded(g, p.reg_alpha);
  return t * t / (h + p.reg_lambda);
}

double leaf_weight(double g, double h, const GrowerParams& p) {
  return -thresholded(g, p.reg_alpha) / (h + p.reg_lambda);
}

struct GradStats {
  double g = 0.0;
  double h = 0.0;
};

// Split statistics of gradient boosting: (g, h, n) sums per bin, the
// second-order gain, histogram subtraction for the larger child.
class GradientPolicy {
 public:
  using Leaf = treegrow::Leaf<GradStats, HistEntry>;
  struct Search {
    std::vector<int> feats;
    double parent_score = 0.0;
  };
  struct Scratch {};

  GradientPolicy(GrowState& s, const std::vector<double>& grad,
                 const std::vector<double>& hess, const std::vector<int>& features,
                 const GrowerParams& params)
      : s_(s),
        grad_(grad),
        hess_(hess),
        features_(features),
        params_(params),
        // hess ≡ 1.0 turns on the kernels' derived-count fast path (MSE
        // boosting and unweighted ensembles). One O(n_rows) scan per tree.
        unit_hess_(std::all_of(hess.begin(), hess.end(),
                               [](double v) { return v == 1.0; })) {}

  GradStats sum(const Leaf& leaf) const {
    GradStats t;
    const std::uint32_t* rows = s_.rows(leaf.begin);
    for (std::size_t i = 0; i < leaf.count; ++i) {
      t.g += grad_[rows[i]];
      t.h += hess_[rows[i]];
    }
    return t;
  }

  static GradStats minus(const GradStats& parent, const GradStats& child) {
    return {parent.g - child.g, parent.h - child.h};
  }

  void build_hist(Leaf& leaf) const {
    build_gradient_histogram_packed(s_.packed, s_.offsets, features_,
                                    s_.rows(leaf.begin), leaf.count, grad_, hess_,
                                    unit_hess_, leaf.hist, s_.kernel, s_.par());
  }

  void derive_hist(Leaf& large, std::vector<HistEntry>&& parent, const Leaf& small) const {
    large.hist = std::move(parent);
    subtract_gradient_histogram_inplace(large.hist, small.hist);
  }

  std::vector<int> level_features() {
    return s_.sample_features(features_, params_.colsample_bylevel);
  }

  bool prepare(const Leaf& leaf, Search& search) {
    search.feats = level_features();
    search.parent_score = leaf_score(leaf.stats.g, leaf.stats.h, params_);
    return true;
  }

  SplitInfo eval(const Leaf& leaf, const Search& search, std::size_t i, Scratch&) const {
    SplitInfo best;
    const int f = search.feats[i];
    const FeatureBins& fb = s_.mapper.feature(static_cast<std::size_t>(f));
    const HistEntry* hist = leaf.hist.data() + s_.offsets[static_cast<std::size_t>(f)];
    const HistEntry& miss = hist[fb.missing_bin()];
    const double g = leaf.stats.g, h = leaf.stats.h;
    const auto count = static_cast<std::uint32_t>(leaf.count);

    auto consider = [&](double gl, double hl, std::uint32_t nl, double gr, double hr,
                        std::uint32_t nr, int bin, bool categorical, bool missing_left,
                        bool missing_only) {
      if (nl < static_cast<std::uint32_t>(params_.min_samples_leaf) ||
          nr < static_cast<std::uint32_t>(params_.min_samples_leaf)) {
        return;
      }
      if (hl < params_.min_child_weight || hr < params_.min_child_weight) return;
      double gain = leaf_score(gl, hl, params_) + leaf_score(gr, hr, params_) -
                    search.parent_score;
      if (gain > best.gain) {
        best = {gain, f, bin, categorical, missing_left, missing_only};
      }
    };

    if (fb.type == ColumnType::Categorical) {
      // One-vs-rest: left = (code == c); missing always joins "rest".
      for (int c = 0; c < fb.n_value_bins; ++c) {
        const HistEntry& e = hist[c];
        if (e.n == 0) continue;
        consider(e.g, e.h, e.n, g - e.g, h - e.h, count - e.n, c,
                 /*categorical=*/true, /*missing_left=*/false, false);
      }
      return best;
    }

    // Numeric: scan thresholds, try missing on each side.
    double gl = 0.0, hl = 0.0;
    std::uint32_t nl = 0;
    const double g_known = g - miss.g;
    const double h_known = h - miss.h;
    const std::uint32_t n_known = count - miss.n;
    for (int b = 0; b + 1 < fb.n_value_bins; ++b) {
      gl += hist[b].g;
      hl += hist[b].h;
      nl += hist[b].n;
      if (nl == 0) continue;
      if (nl == n_known && miss.n == 0) break;
      // Missing right.
      consider(gl, hl, nl, g - gl, h - hl, count - nl, b, false, false, false);
      if (miss.n > 0) {
        // Missing left.
        consider(gl + miss.g, hl + miss.h, nl + miss.n, g_known - gl, h_known - hl,
                 n_known - nl, b, false, true, false);
      }
    }
    if (miss.n > 0 && n_known > 0) {
      // Split known (left) vs missing (right).
      consider(g_known, h_known, n_known, miss.g, miss.h, miss.n, -1, false, false,
               true);
    }
    return best;
  }

  double leaf_value(const Leaf& leaf) const {
    return leaf_weight(leaf.stats.g, leaf.stats.h, params_);
  }

  void fill_leaves(Tree& tree, const std::vector<Leaf>& leaves) const {
    for (const Leaf& leaf : leaves) {
      tree.node(static_cast<std::size_t>(leaf.node)).leaf_value = leaf_value(leaf);
    }
  }

 private:
  GrowState& s_;
  const std::vector<double>& grad_;
  const std::vector<double>& hess_;
  const std::vector<int>& features_;
  const GrowerParams& params_;
  bool unit_hess_;
};

// CatBoost-style growth: one shared split per level, chosen to maximize the
// level-summed gain, applied to every leaf of the level.
Tree grow_oblivious(GrowState& s, GradientPolicy& p, const GrowerParams& params) {
  using Leaf = GradientPolicy::Leaf;
  Tree tree;
  std::vector<Leaf> level;
  Leaf root;
  root.count = s.n_rows();
  root.stats = p.sum(root);
  p.build_hist(root);
  level.push_back(std::move(root));

  for (int d = 0; d < params.oblivious_depth; ++d) {
    std::vector<int> feats = p.level_features();
    // Each feature's best level-summed candidate, evaluated independently
    // (bin ascending, strict `>`), then reduced in feature order below —
    // the parallel run picks the same earliest maximum as the serial scan.
    struct SharedCand {
      double total = 0.0;
      int bin = -1;
      bool categorical = false;
    };
    std::vector<SharedCand> cands(feats.size());
    auto eval_feature = [&](std::size_t fi) {
      const int f = feats[fi];
      SharedCand& cand = cands[fi];
      cand.total = params.min_gain;
      // Evaluate every bin candidate's total (level-summed) gain. Per-leaf
      // prefix sums over bins make this O(leaves × bins) per feature
      // instead of O(leaves × bins²).
      const FeatureBins& fb = s.mapper.feature(static_cast<std::size_t>(f));
      const bool categorical = fb.type == ColumnType::Categorical;
      const int n_candidates = categorical ? fb.n_value_bins : fb.n_value_bins - 1;
      if (n_candidates <= 0) return;
      std::vector<double> total_gain(static_cast<std::size_t>(n_candidates), 0.0);
      for (const auto& leaf : level) {
        if (leaf.count == 0) continue;
        const HistEntry* hist = leaf.hist.data() + s.offsets[static_cast<std::size_t>(f)];
        const double parent_score = leaf_score(leaf.stats.g, leaf.stats.h, params);
        double gl = 0.0, hl = 0.0;
        std::uint32_t nl = 0;
        for (int b = 0; b < n_candidates; ++b) {
          if (categorical) {
            gl = hist[b].g;
            hl = hist[b].h;
            nl = hist[b].n;
          } else {
            gl += hist[b].g;
            hl += hist[b].h;
            nl += hist[b].n;
          }
          double gr = leaf.stats.g - gl, hr = leaf.stats.h - hl;
          std::uint32_t nr = static_cast<std::uint32_t>(leaf.count) - nl;
          if (nl == 0 || nr == 0) continue;
          if (hl < params.min_child_weight || hr < params.min_child_weight) continue;
          double gain =
              leaf_score(gl, hl, params) + leaf_score(gr, hr, params) - parent_score;
          if (gain > 0.0) total_gain[static_cast<std::size_t>(b)] += gain;
        }
      }
      for (int b = 0; b < n_candidates; ++b) {
        if (total_gain[static_cast<std::size_t>(b)] > cand.total) {
          cand.total = total_gain[static_cast<std::size_t>(b)];
          cand.bin = b;
          cand.categorical = categorical;
        }
      }
    };
    ThreadPool* pool = feats.size() >= 2 ? s.pool : nullptr;
    sharded_for(pool, s.n_threads, feats.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t fi = begin; fi < end; ++fi) eval_feature(fi);
    });
    SplitInfo best_shared;
    double best_total = params.min_gain;
    for (std::size_t fi = 0; fi < feats.size(); ++fi) {
      if (cands[fi].bin >= 0 && cands[fi].total > best_total) {
        best_total = cands[fi].total;
        best_shared.feature = feats[fi];
        best_shared.bin = cands[fi].bin;
        best_shared.categorical = cands[fi].categorical;
      }
    }
    if (!best_shared.valid()) break;

    // Apply the shared split to every leaf of the level.
    std::vector<Leaf> next;
    next.reserve(level.size() * 2);
    for (auto& leaf : level) {
      s.fill_node(tree, leaf.node, best_shared);
      auto [left_id, right_id] = tree.split_leaf(leaf.node);
      const std::size_t left_count = s.partition(leaf.begin, leaf.count, best_shared);

      Leaf left, right;
      left.node = left_id;
      left.begin = leaf.begin;
      left.count = left_count;
      right.node = right_id;
      right.begin = leaf.begin + left_count;
      right.count = leaf.count - left_count;
      left.stats = p.sum(left);
      right.stats = GradientPolicy::minus(leaf.stats, left.stats);
      if (d + 1 < params.oblivious_depth) {
        Leaf& small = left.count <= right.count ? left : right;
        Leaf& large = left.count <= right.count ? right : left;
        if (small.count > 0) {
          p.build_hist(small);
        } else {
          small.hist.assign(s.offsets.back(), HistEntry{});
        }
        subtract_gradient_histogram(leaf.hist, small.hist, large.hist);
      }
      next.push_back(std::move(left));
      next.push_back(std::move(right));
    }
    level = std::move(next);
  }

  for (const auto& leaf : level) {
    tree.node(static_cast<std::size_t>(leaf.node)).leaf_value =
        leaf.count == 0 ? 0.0 : p.leaf_value(leaf);
  }
  return tree;
}

}  // namespace

GradientTreeGrower::GradientTreeGrower(const BinMapper& mapper,
                                       const BinnedMatrix& binned,
                                       const PackedBins* packed)
    : mapper_(&mapper), binned_(&binned), packed_(binned, packed) {}

Tree GradientTreeGrower::grow(const std::vector<std::uint32_t>& rows,
                              const std::vector<double>& grad,
                              const std::vector<double>& hess,
                              const std::vector<int>& features,
                              const GrowerParams& params, Rng& rng) const {
  FLAML_REQUIRE(!rows.empty(), "cannot grow a tree on zero rows");
  FLAML_REQUIRE(!features.empty(), "cannot grow a tree with zero features");
  FLAML_REQUIRE(grad.size() == binned_->n_rows() && hess.size() == binned_->n_rows(),
                "gradient arrays must cover all binned rows");
  GrowState state(*mapper_, *binned_, packed_.get(), rows, params.n_threads, rng);
  GradientPolicy policy(state, grad, hess, features, params);
  if (params.style == TreeStyle::Oblivious) return grow_oblivious(state, policy, params);
  return treegrow::grow_leaf_wise(
      state, policy, {params.max_leaves, params.max_depth, params.min_gain});
}

}  // namespace flaml
