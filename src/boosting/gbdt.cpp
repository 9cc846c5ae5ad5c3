#include "boosting/gbdt.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "common/clock.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "tree/tree_io.h"

namespace flaml {

GBDTModel::GBDTModel(Task task, int n_classes, std::vector<double> base_scores)
    : task_(task), n_classes_(n_classes), base_scores_(std::move(base_scores)) {
  FLAML_CHECK(!base_scores_.empty());
}

void GBDTModel::add_tree(Tree tree, double learning_rate) {
  trees_.push_back(std::move(tree));
  scales_.push_back(learning_rate);
}

std::vector<double> GBDTModel::raw_scores(const DataView& view, int n_threads) const {
  const std::size_t n = view.n_rows();
  const std::size_t k = base_scores_.size();
  std::vector<double> scores(n * k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < k; ++c) scores[i * k + c] = base_scores_[c];
  }
  const Dataset& data = view.data();
  ThreadPool* pool = n_threads > 1 ? &shared_pool() : nullptr;
  // Rows sharded, trees in order within each shard: every score cell sums
  // its trees in the same order as the serial loop, bit for bit.
  sharded_for(pool, n_threads, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      const std::size_t c = t % k;
      const Tree& tree = trees_[t];
      const double scale = scales_[t];
      for (std::size_t i = begin; i < end; ++i) {
        scores[i * k + c] += scale * tree.predict_row(data, view.row_index(i));
      }
    }
  });
  return scores;
}

Predictions GBDTModel::predict(const DataView& view, int n_threads) const {
  auto objective = make_objective(task_, n_classes_);
  return objective->transform(raw_scores(view, n_threads));
}

void GBDTModel::truncate(std::size_t n_keep) {
  const std::size_t k = base_scores_.size();
  const std::size_t keep_trees = n_keep * k;
  if (keep_trees < trees_.size()) {
    trees_.resize(keep_trees);
    scales_.resize(keep_trees);
  }
}

std::vector<double> GBDTModel::feature_importance(std::size_t n_features) const {
  std::vector<double> gains(n_features, 0.0);
  for (const Tree& tree : trees_) tree.add_feature_gains(gains);
  return gains;
}

void GBDTModel::save(std::ostream& out) const {
  out << "gbdt v1\n";
  out << static_cast<int>(task_) << ' ' << n_classes_ << ' ' << base_scores_.size()
      << '\n';
  out.precision(17);
  for (double b : base_scores_) out << b << ' ';
  out << '\n' << trees_.size() << '\n';
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    out << scales_[t] << '\n';
    write_tree(out, trees_[t]);
  }
}

GBDTModel GBDTModel::load(std::istream& in) {
  std::string magic, version;
  in >> magic >> version;
  FLAML_REQUIRE(magic == "gbdt" && version == "v1", "bad GBDT model header");
  int task_int = 0, n_classes = 0;
  std::size_t n_base = 0;
  in >> task_int >> n_classes >> n_base;
  FLAML_REQUIRE(in.good() && n_base >= 1, "truncated GBDT model");
  // Untrusted input: validate the enum and cap the counts before allocating.
  FLAML_REQUIRE(task_int >= 0 && task_int <= 2,
                "corrupt GBDT model: unknown task " << task_int);
  FLAML_REQUIRE(n_classes >= 0 && n_classes <= 1'000'000,
                "corrupt GBDT model: class count " << n_classes);
  FLAML_REQUIRE(n_base <= 1'000'000,
                "corrupt GBDT model: oversized base-score count " << n_base);
  std::vector<double> base(n_base);
  for (auto& b : base) in >> b;
  GBDTModel model(static_cast<Task>(task_int), n_classes, std::move(base));
  std::size_t n_trees = 0;
  in >> n_trees;
  FLAML_REQUIRE(in.good(), "truncated GBDT model");
  FLAML_REQUIRE(n_trees <= 10'000'000,
                "corrupt GBDT model: oversized tree count " << n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) {
    double scale = 0.0;
    in >> scale;
    FLAML_REQUIRE(in.good(), "truncated GBDT model tree");
    model.add_tree(read_tree(in), scale);
  }
  return model;
}

std::string GBDTModel::to_string() const {
  std::ostringstream os;
  save(os);
  return os.str();
}

GBDTModel GBDTModel::from_string(const std::string& text) {
  std::istringstream is(text);
  return load(is);
}

GBDTModel train_gbdt(const DataView& train, const DataView* valid,
                     const GBDTParams& params) {
  FLAML_REQUIRE(train.n_rows() >= 2, "GBDT needs at least 2 training rows");
  FLAML_REQUIRE(params.n_trees >= 1, "n_trees must be >= 1");
  FLAML_REQUIRE(params.learning_rate > 0.0, "learning_rate must be positive");
  FLAML_REQUIRE(params.max_leaves >= 2, "max_leaves must be >= 2");
  FLAML_REQUIRE(params.early_stopping_rounds == 0 || valid != nullptr,
                "early stopping requires a validation view");
  FLAML_REQUIRE(!params.progress || valid != nullptr,
                "streamed progress requires a validation view");

  // Progressive accounting: counts stay valid when the fit exits by
  // throwing (DeadlineExceeded / TrialRaced below).
  TrainReport local_report;
  TrainReport& report = params.report != nullptr ? *params.report : local_report;
  report = TrainReport{};
  report.iterations_planned = params.n_trees;

  const Dataset& dataset = train.data();
  const Task task = dataset.task();
  const int n_classes = dataset.n_classes();
  auto objective = make_objective(task, n_classes);
  const int n_outputs = objective->n_outputs();

  Rng rng(params.seed == 0 ? 0x5eedf1a31ULL : params.seed);
  WallClock clock;

  // Bin the training rows: take the shared cross-trial substrate when the
  // provider has one for exactly these rows at this max_bin, else fit
  // fresh. Both paths are byte-identical by construction (build_substrate
  // runs the same fit+encode), so the provider can never change the model.
  std::shared_ptr<const BinnedSubstrate> shared =
      params.substrate ? params.substrate(params.max_bin) : nullptr;
  if (shared != nullptr && (shared->max_bin != params.max_bin ||
                            shared->binned.n_rows() != train.n_rows())) {
    shared = nullptr;
  }
  BinnedSubstrate local;
  if (shared == nullptr) local = build_substrate(train, params.max_bin);
  const BinMapper& mapper = shared ? shared->mapper : local.mapper;
  const BinnedMatrix& binned = shared ? shared->binned : local.binned;
  // Hand the substrate's packed row-major layout to the grower.
  GradientTreeGrower grower(mapper, binned, shared ? &shared->packed : &local.packed);

  const std::size_t n = train.n_rows();
  std::vector<double> labels = train.labels();
  // Sample weights scale each example's gradient/hessian (weighted loss).
  const bool weighted = dataset.has_weights();
  std::vector<double> weights = weighted ? train.weights() : std::vector<double>{};
  std::vector<double> base = objective->base_scores(labels);
  GBDTModel model(task, n_classes, base);

  // Raw scores per training position.
  std::vector<double> scores(n * static_cast<std::size_t>(n_outputs));
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < n_outputs; ++c) {
      scores[i * static_cast<std::size_t>(n_outputs) + static_cast<std::size_t>(c)] =
          base[static_cast<std::size_t>(c)];
    }
  }

  // Validation state for early stopping.
  std::vector<double> valid_labels;
  std::vector<double> valid_scores;
  double best_valid_loss = std::numeric_limits<double>::infinity();
  std::size_t best_iteration = 0;
  int rounds_since_best = 0;
  const bool use_es = params.early_stopping_rounds > 0;
  // Streaming shares the incremental validation scoring early stopping
  // already maintains; it is pure observation (never feeds the model).
  const bool stream = static_cast<bool>(params.progress);
  const bool track_valid = use_es || stream;
  if (track_valid) {
    valid_labels = valid->labels();
    valid_scores.resize(valid->n_rows() * static_cast<std::size_t>(n_outputs));
    for (std::size_t i = 0; i < valid->n_rows(); ++i) {
      for (int c = 0; c < n_outputs; ++c) {
        valid_scores[i * static_cast<std::size_t>(n_outputs) +
                     static_cast<std::size_t>(c)] = base[static_cast<std::size_t>(c)];
      }
    }
  }

  GrowerParams gp;
  gp.max_leaves = params.max_leaves;
  gp.max_depth = params.max_depth;
  gp.min_child_weight = params.min_child_weight;
  gp.reg_alpha = params.reg_alpha;
  gp.reg_lambda = params.reg_lambda;
  gp.colsample_bylevel = params.colsample_bylevel;
  gp.style = params.tree_style;
  gp.oblivious_depth = params.oblivious_depth;
  gp.n_threads = params.n_threads;
  ThreadPool* score_pool = params.n_threads > 1 ? &shared_pool() : nullptr;

  std::vector<int> all_features(dataset.n_cols());
  std::iota(all_features.begin(), all_features.end(), 0);

  std::vector<double> grad, hess;
  std::vector<double> col_scores(n);  // per-output score column

  for (int iter = 0; iter < params.n_trees; ++iter) {
    // Row subsample for this iteration (shared across output columns).
    std::vector<std::uint32_t> rows(n);
    std::iota(rows.begin(), rows.end(), 0u);
    if (params.subsample < 1.0) {
      std::size_t keep = std::max<std::size_t>(
          2, static_cast<std::size_t>(std::lround(params.subsample *
                                                  static_cast<double>(n))));
      for (std::size_t i = 0; i < keep; ++i) {
        std::size_t j = i + rng.uniform_index(rows.size() - i);
        std::swap(rows[i], rows[j]);
      }
      rows.resize(keep);
    }
    // Column subsample for this tree.
    std::vector<int> features = all_features;
    if (params.colsample_bytree < 1.0) {
      std::size_t keep = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(params.colsample_bytree *
                                                  static_cast<double>(features.size()))));
      for (std::size_t i = 0; i < keep; ++i) {
        std::size_t j = i + rng.uniform_index(features.size() - i);
        std::swap(features[i], features[j]);
      }
      features.resize(keep);
    }

    for (int c = 0; c < n_outputs; ++c) {
      objective->gradients(scores, labels, c, grad, hess);
      if (weighted) {
        for (std::size_t i = 0; i < n; ++i) {
          grad[i] *= weights[i];
          hess[i] *= weights[i];
        }
      }
      Tree tree = grower.grow(rows, grad, hess, features, gp, rng);
      // Update training scores (one add per row: order-independent).
      sharded_for(score_pool, params.n_threads, n,
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      scores[i * static_cast<std::size_t>(n_outputs) +
                             static_cast<std::size_t>(c)] +=
                          params.learning_rate *
                          tree.predict_row(dataset, train.row_index(i));
                    }
                  });
      if (track_valid) {
        sharded_for(score_pool, params.n_threads, valid->n_rows(),
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        valid_scores[i * static_cast<std::size_t>(n_outputs) +
                                     static_cast<std::size_t>(c)] +=
                            params.learning_rate *
                            tree.predict_row(dataset, valid->row_index(i));
                      }
                    });
      }
      model.add_tree(std::move(tree), params.learning_rate);
    }

    report.iterations_completed = iter + 1;

    if (track_valid) {
      double vloss = objective->loss(valid_scores, valid_labels);
      if (stream) {
        TrainProgress point;
        point.iteration = iter + 1;
        point.planned = params.n_trees;
        point.valid_loss = vloss;
        if (!params.progress(point)) {
          report.stopped_by = TrainStop::Raced;
          throw TrialRaced("gbdt fit raced at iteration " +
                           std::to_string(iter + 1));
        }
      }
      if (use_es) {
        if (vloss < best_valid_loss - 1e-12) {
          best_valid_loss = vloss;
          best_iteration = static_cast<std::size_t>(iter + 1);
          rounds_since_best = 0;
        } else if (++rounds_since_best >= params.early_stopping_rounds) {
          report.stopped_by = TrainStop::EarlyStopped;
          break;
        }
      }
    }
    if (params.max_seconds > 0.0 && clock.now() > params.max_seconds) {
      report.stopped_by = TrainStop::Deadline;
      if (params.fail_on_deadline) {
        throw DeadlineExceeded("gbdt fit exceeded its deadline");
      }
      break;
    }
  }

  if (use_es && best_iteration > 0) model.truncate(best_iteration);
  return model;
}

}  // namespace flaml
