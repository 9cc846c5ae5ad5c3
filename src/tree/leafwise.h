// The one leaf-wise (best-first) tree-growing loop behind both public
// growers: GradientTreeGrower (grower.h, gradient pairs) and ClassTreeGrower
// (class_grower.h, weighted class counts). Internal to src/tree.
//
// grow_leaf_wise<Policy> owns every step the two split statistics share:
// the split record, the best-first pick under max_leaves / max_depth, the
// stable row partition, the node fill, per-split feature sampling, the
// feature-sharded split search with its fixed-order reduction, and handing
// the parent histogram down to the larger child. A Policy supplies only
// what changes floating-point bits or the RNG draw order:
//
//   using Stats, Cell            leaf totals; histogram cell type
//   struct Search { std::vector<int> feats; ... }  one leaf's split search
//   struct Scratch               per-shard evaluation scratch
//   Stats sum(const Leaf&)       totals over the leaf's rows
//   Stats minus(parent, child)   the sibling's totals
//   void build_hist(Leaf&)       direct build (may decline for small leaves)
//   void derive_hist(Leaf& large, std::vector<Cell>&& parent, const Leaf& small)
//   bool prepare(const Leaf&, Search&)  early exits, then sample features
//                                       via GrowState::sample_features and
//                                       pre-draw per-feature randomness
//   SplitInfo eval(const Leaf&, const Search&, std::size_t i, Scratch&)
//                                best split of feature Search::feats[i]
//   void fill_leaves(Tree&, const std::vector<Leaf>&)
//
// Determinism: split evaluation is a pure function of (leaf, search, i),
// so features can be evaluated on any thread; candidates are reduced in
// feature order with strict `>`, keeping the lowest feature index (and,
// inside eval, the lowest bin) on ties — the same winner as a serial scan,
// so every n_threads value grows the bit-identical tree.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "tree/binning.h"
#include "tree/histogram.h"
#include "tree/packed_bins.h"
#include "tree/tree.h"

namespace flaml {
namespace treegrow {

// Leaves at or below this row count are "small": split search runs
// serially (the scan is dwarfed by the fan-out handoff), and no histogram
// is retained once the leaf's split is known. The class policy also skips
// histograms for them entirely (compact per-feature scan instead).
inline constexpr std::size_t kSmallLeafRows = 256;

struct SplitInfo {
  double gain = -1.0;
  int feature = -1;
  int bin = -1;  // numeric: split "bin <= bin"; categorical: the code
  bool categorical = false;
  bool missing_left = false;
  bool missing_only = false;  // split non-missing (left) vs missing (right)
  bool valid() const { return feature >= 0; }
};

template <class Stats, class Cell>
struct Leaf {
  std::int32_t node = 0;
  std::size_t begin = 0;  // segment [begin, begin+count) of the row buffer
  std::size_t count = 0;
  int depth = 1;
  Stats stats;
  std::vector<Cell> hist;  // offsets-indexed; empty = not retained
  SplitInfo best;
};

struct GrowLimits {
  int max_leaves = 0;
  int max_depth = 0;  // 0 = unlimited
  double min_gain = 0.0;
};

// State of one tree growth shared by the loop and the policies: the
// training matrix in both layouts, the row buffer partitioned in place,
// the histogram kernel, and the parallelism and RNG of the call.
class GrowState {
 public:
  GrowState(const BinMapper& mapper, const BinnedMatrix& binned,
            const PackedBins& packed, const std::vector<std::uint32_t>& rows,
            int n_threads, Rng& rng);

  const BinMapper& mapper;
  const BinnedMatrix& binned;
  const PackedBins& packed;
  const HistKernel kernel;
  ThreadPool* const pool;  // null = serial growth
  const int n_threads;
  Rng& rng;
  const std::vector<std::size_t> offsets;  // histogram_offsets(mapper)

  std::size_t n_rows() const { return buffer_.size(); }
  const std::uint32_t* rows(std::size_t begin) const { return buffer_.data() + begin; }
  HistParallel par() const { return {pool, n_threads}; }

  // Candidate features for one split search: all of `from` when
  // fraction >= 1, else a partial Fisher–Yates draw of
  // max(1, round(fraction·|from|)) of them.
  std::vector<int> sample_features(const std::vector<int>& from, double fraction);

  // Stable partition of buffer[begin, begin+count) by the split; returns
  // the row count on the left.
  std::size_t partition(std::size_t begin, std::size_t count, const SplitInfo& split);

  // Turn the chosen split into the raw-value test of tree node `node`.
  void fill_node(Tree& tree, std::int32_t node, const SplitInfo& split) const;

 private:
  std::vector<std::uint32_t> buffer_;
  std::vector<std::uint32_t> right_;  // partition scratch
};

template <class Policy>
SplitInfo find_split(GrowState& s, Policy& p, const typename Policy::Leaf& leaf,
                     double min_gain, typename Policy::Scratch& serial_scratch) {
  typename Policy::Search search;
  if (!p.prepare(leaf, search)) return {};
  const std::size_t n = search.feats.size();
  SplitInfo best;
  if (s.pool != nullptr && n >= 2 && leaf.count > kSmallLeafRows) {
    std::vector<SplitInfo> per_feature(n);
    sharded_for(s.pool, s.n_threads, n, [&](std::size_t begin, std::size_t end) {
      typename Policy::Scratch scratch;
      for (std::size_t i = begin; i < end; ++i) {
        per_feature[i] = p.eval(leaf, search, i, scratch);
      }
    });
    for (const SplitInfo& cand : per_feature) {
      if (cand.gain > best.gain) best = cand;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const SplitInfo cand = p.eval(leaf, search, i, serial_scratch);
      if (cand.gain > best.gain) best = cand;
    }
  }
  return best.gain < min_gain ? SplitInfo{} : best;
}

template <class Policy>
Tree grow_leaf_wise(GrowState& s, Policy& p, const GrowLimits& limits) {
  using L = typename Policy::Leaf;
  typename Policy::Scratch scratch;
  Tree tree;
  std::vector<L> leaves;
  L root;
  root.count = s.n_rows();
  root.stats = p.sum(root);
  p.build_hist(root);
  root.best = find_split(s, p, root, limits.min_gain, scratch);
  leaves.push_back(std::move(root));

  for (int n_leaves = 1; n_leaves < limits.max_leaves; ++n_leaves) {
    // Best-first: the splittable leaf with the highest gain.
    int pick = -1;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if (!leaves[i].best.valid()) continue;
      if (limits.max_depth > 0 && leaves[i].depth >= limits.max_depth) continue;
      if (pick < 0 ||
          leaves[i].best.gain > leaves[static_cast<std::size_t>(pick)].best.gain) {
        pick = static_cast<int>(i);
      }
    }
    if (pick < 0) break;

    L leaf = std::move(leaves[static_cast<std::size_t>(pick)]);
    leaves.erase(leaves.begin() + pick);
    const std::size_t left_count = s.partition(leaf.begin, leaf.count, leaf.best);
    FLAML_CHECK(left_count > 0 && left_count < leaf.count);
    s.fill_node(tree, leaf.node, leaf.best);
    auto [left_id, right_id] = tree.split_leaf(leaf.node);

    L left, right;
    left.node = left_id;
    left.begin = leaf.begin;
    left.count = left_count;
    left.depth = leaf.depth + 1;
    right.node = right_id;
    right.begin = leaf.begin + left_count;
    right.count = leaf.count - left_count;
    right.depth = leaf.depth + 1;
    left.stats = p.sum(left);
    right.stats = p.minus(leaf.stats, left.stats);

    // The smaller child is built directly; the larger one takes over the
    // parent's histogram buffer and derives its own from it in place. A
    // parent that retained no histogram (small leaf) builds both.
    L& small = left.count <= right.count ? left : right;
    L& large = left.count <= right.count ? right : left;
    if (leaf.hist.empty()) {
      p.build_hist(left);
      p.build_hist(right);
    } else {
      p.build_hist(small);
      p.derive_hist(large, std::move(leaf.hist), small);
    }

    for (L* child : {&left, &right}) {
      child->best = find_split(s, p, *child, limits.min_gain, scratch);
      // Bound retained histogram memory: a leaf that cannot split again,
      // or whose rows make a rebuild trivial, drops its buffer (huge
      // leaf-count configurations would otherwise hold hundreds of MB).
      if (!child->best.valid() || child->count <= kSmallLeafRows) {
        child->hist.clear();
        child->hist.shrink_to_fit();
      }
    }
    leaves.push_back(std::move(left));
    leaves.push_back(std::move(right));
  }

  p.fill_leaves(tree, leaves);
  return tree;
}

}  // namespace treegrow
}  // namespace flaml
