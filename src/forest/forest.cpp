#include "forest/forest.h"

#include <algorithm>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>

#include "common/clock.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "tree/grower.h"
#include "tree/tree_io.h"

namespace flaml {

Predictions ForestModel::predict(const DataView& view, int n_threads) const {
  FLAML_REQUIRE(!trees_.empty(), "predict on an untrained forest");
  const std::size_t n = view.n_rows();
  const Dataset& data = view.data();
  ThreadPool* pool = n_threads > 1 ? &shared_pool() : nullptr;
  Predictions out;
  out.task = task_;
  // Rows are sharded across threads; within a shard every row accumulates
  // its trees in tree order, so the float sums match the serial path bit
  // for bit.
  if (is_classification(task_)) {
    out.n_classes = n_classes_;
    out.values.assign(n * static_cast<std::size_t>(n_classes_), 0.0);
    sharded_for(pool, n_threads, n, [&](std::size_t begin, std::size_t end) {
      for (const Tree& tree : trees_) {
        const auto& dists = tree.leaf_distributions();
        for (std::size_t i = begin; i < end; ++i) {
          std::int32_t leaf = tree.leaf_index(data, view.row_index(i));
          const auto& dist = dists[static_cast<std::size_t>(leaf)];
          FLAML_CHECK(!dist.empty());
          for (int c = 0; c < n_classes_; ++c) {
            out.values[i * static_cast<std::size_t>(n_classes_) +
                       static_cast<std::size_t>(c)] += dist[static_cast<std::size_t>(c)];
          }
        }
      }
    });
    const double inv = 1.0 / static_cast<double>(trees_.size());
    for (double& v : out.values) v *= inv;
    // Smooth toward uniform so no class has exactly zero probability (a
    // handful of trees would otherwise produce 0s that blow up log-loss).
    const double eps = 1e-3;
    const double uniform = 1.0 / static_cast<double>(n_classes_);
    for (double& v : out.values) v = (1.0 - eps) * v + eps * uniform;
  } else {
    out.n_classes = 0;
    out.values.assign(n, 0.0);
    sharded_for(pool, n_threads, n, [&](std::size_t begin, std::size_t end) {
      for (const Tree& tree : trees_) {
        for (std::size_t i = begin; i < end; ++i) {
          out.values[i] += tree.predict_row(data, view.row_index(i));
        }
      }
    });
    const double inv = 1.0 / static_cast<double>(trees_.size());
    for (double& v : out.values) v *= inv;
  }
  return out;
}

std::vector<double> ForestModel::feature_importance(std::size_t n_features) const {
  std::vector<double> gains(n_features, 0.0);
  for (const Tree& tree : trees_) tree.add_feature_gains(gains);
  return gains;
}

void ForestModel::save(std::ostream& out) const {
  out << "forest v1\n";
  out << static_cast<int>(task_) << ' ' << n_classes_ << ' ' << trees_.size() << '\n';
  out.precision(17);
  for (const Tree& tree : trees_) write_tree(out, tree);
}

ForestModel ForestModel::load(std::istream& in) {
  std::string magic, version;
  in >> magic >> version;
  FLAML_REQUIRE(magic == "forest" && version == "v1", "bad forest model header");
  int task_int = 0, n_classes = 0;
  std::size_t n_trees = 0;
  in >> task_int >> n_classes >> n_trees;
  FLAML_REQUIRE(in.good() && n_trees >= 1, "truncated forest model");
  // Untrusted input: validate the enum and cap the counts before allocating.
  FLAML_REQUIRE(task_int >= 0 && task_int <= 2,
                "corrupt forest model: unknown task " << task_int);
  FLAML_REQUIRE(n_classes >= 0 && n_classes <= 1'000'000,
                "corrupt forest model: class count " << n_classes);
  FLAML_REQUIRE(n_trees <= 10'000'000,
                "corrupt forest model: oversized tree count " << n_trees);
  ForestModel model(static_cast<Task>(task_int), n_classes);
  for (std::size_t t = 0; t < n_trees; ++t) model.add_tree(read_tree(in));
  return model;
}

namespace {
// Chunk size for streamed (racing) forest training. A constant independent
// of n_threads, so the streamed learning curve — and any racing kill point —
// is identical at every thread count.
constexpr int kForestStreamChunk = 8;
}  // namespace

ForestModel train_forest(const DataView& train, const ForestParams& params) {
  FLAML_REQUIRE(train.n_rows() >= 2, "forest needs at least 2 training rows");
  FLAML_REQUIRE(params.n_trees >= 1, "n_trees must be >= 1");
  FLAML_REQUIRE(params.max_leaves >= 2, "max_leaves must be >= 2");
  const bool stream = static_cast<bool>(params.progress);
  FLAML_REQUIRE(!stream || params.valid != nullptr,
                "streamed progress requires a validation view");
  const Dataset& dataset = train.data();
  const Task task = dataset.task();
  const std::size_t n = train.n_rows();
  Rng rng(params.seed == 0 ? 0xf0e57ULL : params.seed);
  WallClock clock;

  TrainReport local_report;
  TrainReport& report = params.report != nullptr ? *params.report : local_report;
  report = TrainReport{};
  report.iterations_planned = params.n_trees;
  auto out_of_time = [&](int built) {
    if (params.max_seconds <= 0.0 || clock.now() <= params.max_seconds) return false;
    if (params.fail_on_deadline) {
      throw DeadlineExceeded("forest fit exceeded its deadline");
    }
    return built >= 1;
  };

  // Bin the training rows, or take the provider's shared substrate for
  // exactly these rows; every tree reads the same packed codes.
  const std::shared_ptr<const BinnedSubstrate> substrate =
      acquire_substrate(params.substrate, train, params.max_bin);
  const BinMapper& mapper = substrate->mapper;
  const PackedBins& packed = substrate->packed;

  ForestModel model(task, dataset.n_classes());

  // Each tree gets its own rng stream, derived serially up front, so tree t
  // draws the same bootstrap sample and split randomness whether trees are
  // trained one by one or concurrently.
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(static_cast<std::size_t>(params.n_trees));
  for (int t = 0; t < params.n_trees; ++t) tree_rngs.push_back(rng.split());

  std::vector<Tree> trees(static_cast<std::size_t>(params.n_trees));
  std::vector<char> built(static_cast<std::size_t>(params.n_trees), 0);
  ThreadPool* pool = params.n_threads > 1 ? &shared_pool() : nullptr;
  auto run_range = [&](int begin, int end, const std::function<void(int)>& build_tree) {
    const std::size_t count = static_cast<std::size_t>(end - begin);
    if (pool != nullptr && count > 1) {
      pool->parallel_for(count, static_cast<std::size_t>(params.n_threads),
                         [&](std::size_t i) { build_tree(begin + static_cast<int>(i)); });
    } else {
      for (int t = begin; t < end; ++t) build_tree(t);
    }
  };

  // Streaming state: validation prediction sums accumulated over the scored
  // contiguous tree prefix, updated serially in tree order between chunks
  // (deterministic at every thread count; the valid set never feeds back
  // into training).
  const int n_classes = dataset.n_classes();
  const std::size_t n_valid = stream ? params.valid->n_rows() : 0;
  std::vector<double> valid_sums;
  std::vector<double> valid_labels;
  if (stream) {
    valid_sums.assign(is_classification(task)
                          ? n_valid * static_cast<std::size_t>(n_classes)
                          : n_valid,
                      0.0);
    valid_labels = params.valid->labels();
  }
  auto add_valid_scores = [&](int t) {
    const Tree& tree = trees[static_cast<std::size_t>(t)];
    const Dataset& vdata = params.valid->data();
    if (is_classification(task)) {
      const auto& dists = tree.leaf_distributions();
      for (std::size_t i = 0; i < n_valid; ++i) {
        std::int32_t leaf = tree.leaf_index(vdata, params.valid->row_index(i));
        const auto& dist = dists[static_cast<std::size_t>(leaf)];
        for (int c = 0; c < n_classes; ++c) {
          valid_sums[i * static_cast<std::size_t>(n_classes) +
                     static_cast<std::size_t>(c)] += dist[static_cast<std::size_t>(c)];
        }
      }
    } else {
      for (std::size_t i = 0; i < n_valid; ++i) {
        valid_sums[i] += tree.predict_row(vdata, params.valid->row_index(i));
      }
    }
  };
  auto valid_loss_now = [&](int n_built) -> double {
    if (is_classification(task)) {
      // Misclassification rate of the argmax (ties -> lowest class index);
      // the averaging + smoothing of predict() is monotone per row, so the
      // raw sums give the same argmax.
      std::size_t wrong = 0;
      for (std::size_t i = 0; i < n_valid; ++i) {
        int best_c = 0;
        double best_v = valid_sums[i * static_cast<std::size_t>(n_classes)];
        for (int c = 1; c < n_classes; ++c) {
          const double v = valid_sums[i * static_cast<std::size_t>(n_classes) +
                                      static_cast<std::size_t>(c)];
          if (v > best_v) {
            best_v = v;
            best_c = c;
          }
        }
        if (best_c != static_cast<int>(valid_labels[i])) ++wrong;
      }
      return n_valid == 0 ? 0.0
                          : static_cast<double>(wrong) / static_cast<double>(n_valid);
    }
    const double inv = 1.0 / static_cast<double>(n_built);
    double sq = 0.0;
    for (std::size_t i = 0; i < n_valid; ++i) {
      const double d = valid_sums[i] * inv - valid_labels[i];
      sq += d * d;
    }
    return n_valid == 0 ? 0.0 : sq / static_cast<double>(n_valid);
  };

  auto train_trees = [&](const std::function<void(int)>& build_tree) {
    // build_tree checks the deadline itself (so parallel workers stop too)
    // and leaves built[t] == 0 when it runs out of time.
    if (!stream) {
      run_range(0, params.n_trees, build_tree);
      return;
    }
    // Streamed: fixed-size chunks with a barrier per chunk; after each the
    // callback sees the loss of the contiguous built prefix. The per-tree
    // rng streams are pre-split, so chunking cannot change any tree.
    int scored = 0;
    for (int c0 = 0; c0 < params.n_trees; c0 += kForestStreamChunk) {
      const int c1 = std::min(c0 + kForestStreamChunk, params.n_trees);
      run_range(c0, c1, build_tree);
      int prefix = scored;
      while (prefix < c1 && built[static_cast<std::size_t>(prefix)] != 0) ++prefix;
      for (int t = scored; t < prefix; ++t) add_valid_scores(t);
      scored = prefix;
      report.iterations_completed = scored;
      if (scored > 0) {
        TrainProgress point;
        point.iteration = scored;
        point.planned = params.n_trees;
        point.valid_loss = valid_loss_now(scored);
        if (!params.progress(point)) {
          report.stopped_by = TrainStop::Raced;
          throw TrialRaced("forest fit raced at tree " + std::to_string(scored));
        }
      }
      if (prefix < c1) break;  // deadline skipped a tree: keep the prefix
    }
  };
  auto sample_rows = [&](Rng& tree_rng) {
    std::vector<std::uint32_t> rows(n);
    if (params.extra_trees) {
      std::iota(rows.begin(), rows.end(), 0u);
    } else {
      for (auto& r : rows) r = static_cast<std::uint32_t>(tree_rng.uniform_index(n));
    }
    return rows;
  };

  const bool weighted = dataset.has_weights();
  if (is_classification(task)) {
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(train.label(i));
    std::vector<double> weights = weighted ? train.weights() : std::vector<double>{};
    ClassTreeGrower grower(mapper, packed, dataset.n_classes());
    ClassGrowerParams gp;
    gp.max_leaves = params.max_leaves;
    gp.min_samples_leaf = params.min_samples_leaf;
    gp.max_features = params.max_features;
    gp.criterion = params.criterion;
    gp.extra_random = params.extra_trees;
    gp.n_threads = params.n_threads;
    train_trees([&](int t) {
      if (out_of_time(t)) return;
      Rng& tree_rng = tree_rngs[static_cast<std::size_t>(t)];
      std::vector<std::uint32_t> rows = sample_rows(tree_rng);
      trees[static_cast<std::size_t>(t)] =
          grower.grow(rows, labels, weights, gp, tree_rng);
      built[static_cast<std::size_t>(t)] = 1;
    });
  } else {
    // Regression: gradient grower with grad = -w·y, hess = w makes splits
    // maximize (weighted) variance reduction and leaves predict the
    // weighted target mean.
    std::vector<double> grad(n), hess(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      double w = weighted ? train.weight(i) : 1.0;
      grad[i] = -w * train.label(i);
      hess[i] = w;
    }
    GradientTreeGrower grower(mapper, packed);
    GrowerParams gp;
    gp.max_leaves = params.max_leaves;
    gp.min_samples_leaf = std::max(1, params.min_samples_leaf);
    gp.min_child_weight = 0.0;
    gp.reg_lambda = 1e-9;
    gp.reg_alpha = 0.0;
    gp.colsample_bylevel = params.max_features;
    gp.n_threads = params.n_threads;
    std::vector<int> features(dataset.n_cols());
    std::iota(features.begin(), features.end(), 0);
    train_trees([&](int t) {
      if (out_of_time(t)) return;
      Rng& tree_rng = tree_rngs[static_cast<std::size_t>(t)];
      std::vector<std::uint32_t> rows = sample_rows(tree_rng);
      trees[static_cast<std::size_t>(t)] =
          grower.grow(rows, grad, hess, features, gp, tree_rng);
      built[static_cast<std::size_t>(t)] = 1;
    });
  }
  // Keep the contiguous prefix of finished trees: a deadline skip at tree t
  // invalidates everything after it (those trees may be half a schedule
  // ahead), matching the serial early-break semantics.
  for (int t = 0; t < params.n_trees; ++t) {
    if (!built[static_cast<std::size_t>(t)]) break;
    model.add_tree(std::move(trees[static_cast<std::size_t>(t)]));
  }
  report.iterations_completed = static_cast<int>(model.n_trees());
  if (report.iterations_completed < params.n_trees &&
      report.stopped_by == TrainStop::Completed) {
    report.stopped_by = TrainStop::Deadline;  // safety-cap partial model
  }
  return model;
}

}  // namespace flaml
