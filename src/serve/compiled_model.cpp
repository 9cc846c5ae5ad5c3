#include "serve/compiled_model.h"

#include <algorithm>
#include <istream>
#include <sstream>

#include "boosting/gbdt.h"
#include "boosting/objectives.h"
#include "common/error.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "forest/forest.h"
#include "linear/linear_model.h"
#include "resume/checkpoint.h"
#include "serve/artifact.h"

namespace flaml::serve {

namespace {

// Rows per scoring tile: bounds the gathered row block (kTile × n_features
// floats) while staying large enough to amortize the per-tile transpose.
constexpr std::size_t kTile = 512;

// Loader caps, matching the text-model loaders' discipline.
constexpr int kMaxClasses = 1'000'000;
constexpr std::uint32_t kMaxFeatures = 100'000'000;
constexpr std::int32_t kMaxOutputs = 1'000'000;
constexpr std::uint32_t kMaxDim = 100'000'000;

std::uint32_t checked_u32(std::size_t n) {
  FLAML_CHECK(n <= 0xffffffffu);
  return static_cast<std::uint32_t>(n);
}

// Scores for one encoded row: w_k · x + b_k for each output k. Same
// expression order as the interpreted LinearModel::predict, so the sums
// match bit for bit.
void lin_row_scores(const std::vector<double>& weights, const std::vector<double>& x,
                    int n_outputs, std::size_t dim, std::vector<double>& out) {
  out.assign(static_cast<std::size_t>(n_outputs), 0.0);
  for (int k = 0; k < n_outputs; ++k) {
    const double* w = weights.data() + static_cast<std::size_t>(k) * (dim + 1);
    double s = w[dim];  // bias
    for (std::size_t j = 0; j < dim; ++j) s += w[j] * x[j];
    out[static_cast<std::size_t>(k)] = s;
  }
}

std::uint32_t used_features(const FlatForest& forest) {
  std::int32_t max_feature = -1;
  for (std::int32_t f : forest.feature) max_feature = std::max(max_feature, f);
  return static_cast<std::uint32_t>(max_feature + 1);
}

std::vector<const float*> column_pointers(const Dataset& data) {
  std::vector<const float*> cols(data.n_cols());
  for (std::size_t c = 0; c < data.n_cols(); ++c) cols[c] = data.column(c).data();
  return cols;
}

// Gather one tile of rows into a dense row-major block: row j's features
// land at block[j * n_feat ..], so every route_block traversal step reads
// from one hot cache line instead of scattering across the column arrays.
// The block is reused for every tree of the tile, amortizing the copy.
void fill_tile(const std::vector<const float*>& cols, std::uint32_t n_feat,
               const std::uint32_t* rows, std::size_t tn, float* block) {
  for (std::uint32_t f = 0; f < n_feat; ++f) {
    const float* src = cols[f];
    float* dst = block + f;
    for (std::size_t j = 0; j < tn; ++j) dst[j * n_feat] = src[rows[j]];
  }
}

void write_tables(ByteWriter& w, const FlatForest& f) {
  w.u32(checked_u32(f.roots.size()));
  w.u32(checked_u32(f.feature.size()));
  w.u32(checked_u32(f.leaf_value.size()));
  w.u32(static_cast<std::uint32_t>(f.dist_width));
  for (std::int32_t v : f.roots) w.i32(v);
  for (std::int32_t v : f.feature) w.i32(v);
  for (float v : f.threshold) w.f32(v);
  for (std::int32_t v : f.category) w.i32(v);
  for (std::uint8_t v : f.flags) w.u8(v);
  for (std::int32_t v : f.left) w.i32(v);
  for (std::int32_t v : f.right) w.i32(v);
  for (double v : f.leaf_value) w.f64(v);
  for (double v : f.leaf_dist) w.f64(v);
}

// Reject any count whose byte footprint exceeds the remaining payload
// BEFORE allocating for it — a corrupted count must not drive an oversized
// allocation (same rule as ByteReader::count, applied to derived sizes).
void guard_alloc(const ByteReader& r, std::uint64_t n, std::uint64_t elem_bytes,
                 const char* what) {
  FLAML_PARSE_REQUIRE(elem_bytes == 0 || n <= r.remaining() / elem_bytes,
                      "compiled artifact: " << what << " count " << n
                          << " exceeds the remaining " << r.remaining()
                          << " payload bytes");
}

FlatForest read_tables(ByteReader& r) {
  FlatForest f;
  const std::uint32_t n_trees = r.u32();
  const std::uint32_t n_internal = r.u32();
  const std::uint32_t n_leaves = r.u32();
  const std::uint32_t dist_width = r.u32();
  FLAML_PARSE_REQUIRE(dist_width <= static_cast<std::uint32_t>(kMaxClasses),
                      "compiled artifact: leaf-distribution width " << dist_width);
  // Byte footprint per internal node across the six parallel arrays.
  guard_alloc(r, n_trees, 4, "root");
  guard_alloc(r, n_internal, 4 + 4 + 4 + 1 + 4 + 4, "internal-node");
  guard_alloc(r, n_leaves, 8ull * (1 + dist_width), "leaf");
  f.dist_width = static_cast<std::int32_t>(dist_width);
  f.roots.resize(n_trees);
  for (auto& v : f.roots) v = r.i32();
  f.feature.resize(n_internal);
  for (auto& v : f.feature) v = r.i32();
  f.threshold.resize(n_internal);
  for (auto& v : f.threshold) v = r.f32();
  f.category.resize(n_internal);
  for (auto& v : f.category) v = r.i32();
  f.flags.resize(n_internal);
  for (auto& v : f.flags) v = r.u8();
  f.left.resize(n_internal);
  for (auto& v : f.left) v = r.i32();
  f.right.resize(n_internal);
  for (auto& v : f.right) v = r.i32();
  f.leaf_value.resize(n_leaves);
  for (auto& v : f.leaf_value) v = r.f64();
  f.leaf_dist.resize(static_cast<std::size_t>(n_leaves) * dist_width);
  for (auto& v : f.leaf_dist) v = r.f64();
  return f;
}

}  // namespace

// ---------------------------------------------------------------------------
// Compilation

CompiledModel compile(const GBDTModel& model) {
  FLAML_REQUIRE(model.n_outputs() >= 1, "compile on an untrained GBDT model");
  CompiledModel out;
  out.kind_ = CompiledKind::Gbdt;
  out.task_ = model.task();
  out.n_classes_ = model.n_classes();
  out.base_scores_ = model.base_scores();
  out.tree_scales_ = model.tree_scales();
  for (const Tree& tree : model.trees()) out.forest_.add_tree(tree, false);
  out.forest_.pack();
  out.n_features_ = used_features(out.forest_);
  out.scorer_.build(out.forest_, out.n_features_);
  return out;
}

CompiledModel compile(const ForestModel& model) {
  FLAML_REQUIRE(model.n_trees() >= 1, "compile on an untrained forest model");
  CompiledModel out;
  out.kind_ = CompiledKind::Forest;
  out.task_ = model.task();
  out.n_classes_ = model.n_classes();
  const bool with_dist = is_classification(model.task());
  out.forest_.dist_width = with_dist ? model.n_classes() : 0;
  for (std::size_t t = 0; t < model.n_trees(); ++t) {
    out.forest_.add_tree(model.tree(t), with_dist);
  }
  out.forest_.pack();
  out.n_features_ = used_features(out.forest_);
  out.scorer_.build(out.forest_, out.n_features_);
  return out;
}

CompiledModel compile(const LinearModel& model) {
  FLAML_REQUIRE(!model.weights().empty(), "compile on an untrained linear model");
  CompiledModel out;
  out.kind_ = CompiledKind::Linear;
  out.task_ = model.task();
  out.n_classes_ = model.n_classes();
  out.lin_outputs_ = model.n_outputs();
  out.lin_dim_ = checked_u32(model.encoder().dim());
  out.lin_plans_ = model.encoder().plans();
  out.lin_weights_ = model.weights();
  out.n_features_ = checked_u32(out.lin_plans_.size());
  return out;
}

CompiledModel compile_saved(std::istream& in) {
  const std::istream::pos_type pos = in.tellg();
  FLAML_REQUIRE(pos != std::istream::pos_type(-1),
                "compile_saved needs a seekable stream");
  std::string magic;
  in >> magic;
  in.clear();
  in.seekg(pos);
  if (magic == "gbdt") return compile(GBDTModel::load(in));
  if (magic == "forest") return compile(ForestModel::load(in));
  if (magic == "linear") return compile(LinearModel::load(in));
  if (magic == "flaml-model") {
    std::string wrapper, version, learner;
    in >> wrapper >> version >> learner;
    FLAML_REQUIRE(in.good() && version == "v1",
                  "unsupported flaml-model version '" << version << "'");
    return compile_saved(in);
  }
  FLAML_REQUIRE(false, "unknown saved-model format '" << magic << "'");
}

CompiledModel compile_blob(const std::string& blob) {
  std::istringstream in(blob);
  std::string magic, version, learner;
  in >> magic >> version >> learner;
  FLAML_REQUIRE(in.good() && magic == "flaml-model" && version == "v1",
                "not a save_best_model blob");
  return compile_saved(in);
}

CompiledModel compile_checkpoint_file(const std::string& path) {
  const resume::SearchCheckpoint ckpt = resume::SearchCheckpoint::load(path);
  FLAML_REQUIRE(!ckpt.model_blob.empty(),
                "checkpoint '" << path << "' stores no best-model blob "
                    << "(mid-search snapshot, no successful trial, or "
                    << "ensemble mode)");
  return compile_blob(ckpt.model_blob);
}

// ---------------------------------------------------------------------------
// Prediction

Predictions CompiledModel::predict_many(const DataView& view, int n_threads) const {
  const std::size_t n = view.n_rows();
  if (n == 0) {
    Predictions out;
    out.task = task_;
    out.n_classes = is_classification(task_) ? n_classes_ : 0;
    return out;
  }
  FLAML_REQUIRE(view.data().n_cols() >= n_features_,
                "predict_many: view has " << view.data().n_cols()
                    << " columns, model needs " << n_features_);
  switch (kind_) {
    case CompiledKind::Gbdt:
      return predict_gbdt(view, n_threads);
    case CompiledKind::Forest:
      return predict_forest(view, n_threads);
    case CompiledKind::Linear:
      return predict_linear(view, n_threads);
  }
  FLAML_CHECK(false);
}

Predictions CompiledModel::predict_gbdt(const DataView& view, int n_threads) const {
  const std::size_t n = view.n_rows();
  const std::size_t k = base_scores_.size();
  std::vector<double> scores(n * k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < k; ++c) scores[i * k + c] = base_scores_[c];
  }
  const std::vector<const float*> cols = column_pointers(view.data());
  const std::uint32_t* rows = view.rows().data();
  const std::size_t n_trees = forest_.n_trees();
  ThreadPool* pool = n_threads > 1 ? &shared_pool() : nullptr;
  // Rows sharded, trees in order within each tile: every score cell sums
  // base + its trees' contributions in tree order, matching the interpreted
  // raw_scores bit for bit for any thread count.
  const std::uint32_t n_feat = n_features_;
  const double* leaf_value = forest_.leaf_value.data();
  sharded_for(pool, n_threads, n, [&](std::size_t begin, std::size_t end) {
    std::vector<std::int32_t> leaves(scorer_.ok() ? n_trees : kTile);
    std::vector<std::uint64_t> bv(scorer_.ok() ? n_trees : 0);
    std::vector<float> block(kTile * n_feat);
    for (std::size_t tb = begin; tb < end; tb += kTile) {
      const std::size_t tn = std::min(kTile, end - tb);
      fill_tile(cols, n_feat, rows + tb, tn, block.data());
      if (scorer_.ok()) {
        for (std::size_t j = 0; j < tn; ++j) {
          scorer_.score_row(block.data() + j * n_feat, bv.data(), leaves.data());
          double* dst = scores.data() + (tb + j) * k;
          for (std::size_t t = 0; t < n_trees; ++t) {
            dst[t % k] +=
                tree_scales_[t] * leaf_value[static_cast<std::size_t>(leaves[t])];
          }
        }
        continue;
      }
      for (std::size_t t = 0; t < n_trees; ++t) {
        forest_.route_block(t, block.data(), n_feat, tn, leaves.data());
        const double scale = tree_scales_[t];
        const std::size_t c = t % k;
        for (std::size_t j = 0; j < tn; ++j) {
          scores[(tb + j) * k + c] +=
              scale * leaf_value[static_cast<std::size_t>(leaves[j])];
        }
      }
    }
  });
  return make_objective(task_, n_classes_)->transform(scores);
}

Predictions CompiledModel::predict_forest(const DataView& view, int n_threads) const {
  const std::size_t n = view.n_rows();
  const std::uint32_t n_feat = n_features_;
  const std::vector<const float*> cols = column_pointers(view.data());
  const std::uint32_t* rows = view.rows().data();
  const std::size_t n_trees = forest_.n_trees();
  ThreadPool* pool = n_threads > 1 ? &shared_pool() : nullptr;
  Predictions out;
  out.task = task_;
  if (is_classification(task_)) {
    const std::size_t k = static_cast<std::size_t>(n_classes_);
    out.n_classes = n_classes_;
    out.values.assign(n * k, 0.0);
    sharded_for(pool, n_threads, n, [&](std::size_t begin, std::size_t end) {
      std::vector<std::int32_t> leaves(scorer_.ok() ? n_trees : kTile);
      std::vector<std::uint64_t> bv(scorer_.ok() ? n_trees : 0);
      std::vector<float> block(kTile * n_feat);
      for (std::size_t tb = begin; tb < end; tb += kTile) {
        const std::size_t tn = std::min(kTile, end - tb);
        fill_tile(cols, n_feat, rows + tb, tn, block.data());
        if (scorer_.ok()) {
          for (std::size_t j = 0; j < tn; ++j) {
            scorer_.score_row(block.data() + j * n_feat, bv.data(),
                              leaves.data());
            double* dst = out.values.data() + (tb + j) * k;
            for (std::size_t t = 0; t < n_trees; ++t) {
              const double* dist =
                  forest_.leaf_dist.data() +
                  static_cast<std::size_t>(leaves[t]) * k;
              for (std::size_t c = 0; c < k; ++c) dst[c] += dist[c];
            }
          }
          continue;
        }
        for (std::size_t t = 0; t < n_trees; ++t) {
          forest_.route_block(t, block.data(), n_feat, tn, leaves.data());
          for (std::size_t j = 0; j < tn; ++j) {
            const double* dist =
                forest_.leaf_dist.data() + static_cast<std::size_t>(leaves[j]) * k;
            double* dst = out.values.data() + (tb + j) * k;
            for (std::size_t c = 0; c < k; ++c) dst[c] += dist[c];
          }
        }
      }
    });
    const double inv = 1.0 / static_cast<double>(n_trees);
    for (double& v : out.values) v *= inv;
    // Same smoothing constants as the interpreted ForestModel::predict.
    const double eps = 1e-3;
    const double uniform = 1.0 / static_cast<double>(n_classes_);
    for (double& v : out.values) v = (1.0 - eps) * v + eps * uniform;
  } else {
    out.n_classes = 0;
    out.values.assign(n, 0.0);
    sharded_for(pool, n_threads, n, [&](std::size_t begin, std::size_t end) {
      std::vector<std::int32_t> leaves(scorer_.ok() ? n_trees : kTile);
      std::vector<std::uint64_t> bv(scorer_.ok() ? n_trees : 0);
      std::vector<float> block(kTile * n_feat);
      for (std::size_t tb = begin; tb < end; tb += kTile) {
        const std::size_t tn = std::min(kTile, end - tb);
        fill_tile(cols, n_feat, rows + tb, tn, block.data());
        if (scorer_.ok()) {
          for (std::size_t j = 0; j < tn; ++j) {
            scorer_.score_row(block.data() + j * n_feat, bv.data(),
                              leaves.data());
            double s = 0.0;
            for (std::size_t t = 0; t < n_trees; ++t) {
              s += forest_.leaf_value[static_cast<std::size_t>(leaves[t])];
            }
            out.values[tb + j] += s;
          }
          continue;
        }
        for (std::size_t t = 0; t < n_trees; ++t) {
          forest_.route_block(t, block.data(), n_feat, tn, leaves.data());
          for (std::size_t j = 0; j < tn; ++j) {
            out.values[tb + j] +=
                forest_.leaf_value[static_cast<std::size_t>(leaves[j])];
          }
        }
      }
    });
    const double inv = 1.0 / static_cast<double>(n_trees);
    for (double& v : out.values) v *= inv;
  }
  return out;
}

Predictions CompiledModel::predict_linear(const DataView& view, int n_threads) const {
  const std::size_t n = view.n_rows();
  const std::size_t dim = lin_dim_;
  Predictions out;
  out.task = task_;
  out.n_classes = is_classification(task_) ? n_classes_ : 0;
  out.values.resize(is_classification(task_)
                        ? n * static_cast<std::size_t>(n_classes_)
                        : n);
  ThreadPool* pool = n_threads > 1 ? &shared_pool() : nullptr;
  // Rows are independent (no cross-row accumulation), so sharding is
  // trivially bit-identical to the interpreted serial loop.
  sharded_for(pool, n_threads, n, [&](std::size_t begin, std::size_t end) {
    std::vector<double> x, scores;
    for (std::size_t i = begin; i < end; ++i) {
      // FeatureEncoder::encode_row, replayed from the compiled plans.
      x.assign(dim, 0.0);
      for (std::size_t c = 0; c < lin_plans_.size(); ++c) {
        const FeatureEncoder::ColumnPlan& plan = lin_plans_[c];
        const float v = view.value(i, c);
        if (Dataset::is_missing(v)) continue;  // zero-encode missing
        if (plan.type == ColumnType::Categorical) {
          const int code = static_cast<int>(v);
          if (code >= 0 && code < plan.cardinality) {
            x[plan.offset + static_cast<std::size_t>(code)] = 1.0;
          }
        } else {
          x[plan.offset] = (static_cast<double>(v) - plan.mean) * plan.inv_std;
        }
      }
      if (task_ == Task::Regression) {
        lin_row_scores(lin_weights_, x, 1, dim, scores);
        out.values[i] = scores[0];
      } else if (task_ == Task::BinaryClassification) {
        lin_row_scores(lin_weights_, x, 1, dim, scores);
        const double p1 = sigmoid(scores[0]);
        out.values[i * 2] = 1.0 - p1;
        out.values[i * 2 + 1] = p1;
      } else {
        lin_row_scores(lin_weights_, x, n_classes_, dim, scores);
        softmax_inplace(scores);
        for (int c = 0; c < n_classes_; ++c) {
          out.values[i * static_cast<std::size_t>(n_classes_) +
                     static_cast<std::size_t>(c)] =
              scores[static_cast<std::size_t>(c)];
        }
      }
    }
  });
  return out;
}

// ---------------------------------------------------------------------------
// Serialization

std::string CompiledModel::serialize() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(kind_));
  w.u8(static_cast<std::uint8_t>(task_));
  w.i32(n_classes_);
  w.u32(n_features_);
  switch (kind_) {
    case CompiledKind::Gbdt:
      w.u32(checked_u32(base_scores_.size()));
      for (double v : base_scores_) w.f64(v);
      w.u32(checked_u32(tree_scales_.size()));
      for (double v : tree_scales_) w.f64(v);
      write_tables(w, forest_);
      break;
    case CompiledKind::Forest:
      write_tables(w, forest_);
      break;
    case CompiledKind::Linear:
      w.i32(lin_outputs_);
      w.u32(lin_dim_);
      w.u32(checked_u32(lin_plans_.size()));
      for (const FeatureEncoder::ColumnPlan& plan : lin_plans_) {
        w.u8(plan.type == ColumnType::Categorical ? 1 : 0);
        w.u32(checked_u32(plan.offset));
        w.i32(plan.cardinality);
        w.f64(plan.mean);
        w.f64(plan.inv_std);
      }
      w.u32(checked_u32(lin_weights_.size()));
      for (double v : lin_weights_) w.f64(v);
      break;
  }
  return w.bytes();
}

CompiledModel CompiledModel::deserialize(const std::string& payload) {
  ByteReader r(payload);
  CompiledModel m;
  const std::uint8_t kind = r.u8();
  FLAML_PARSE_REQUIRE(kind <= 2, "compiled artifact: unknown model kind " << int(kind));
  m.kind_ = static_cast<CompiledKind>(kind);
  const std::uint8_t task = r.u8();
  FLAML_PARSE_REQUIRE(task <= 2, "compiled artifact: unknown task " << int(task));
  m.task_ = static_cast<Task>(task);
  m.n_classes_ = r.i32();
  if (is_classification(m.task_)) {
    FLAML_PARSE_REQUIRE(m.n_classes_ >= 2 && m.n_classes_ <= kMaxClasses,
                        "compiled artifact: class count " << m.n_classes_);
    FLAML_PARSE_REQUIRE(m.task_ != Task::BinaryClassification || m.n_classes_ == 2,
                        "compiled artifact: binary model with " << m.n_classes_
                            << " classes");
  } else {
    FLAML_PARSE_REQUIRE(m.n_classes_ == 0,
                        "compiled artifact: regression model with "
                            << m.n_classes_ << " classes");
  }
  m.n_features_ = r.u32();
  FLAML_PARSE_REQUIRE(m.n_features_ <= kMaxFeatures,
                      "compiled artifact: feature count " << m.n_features_);
  switch (m.kind_) {
    case CompiledKind::Gbdt: {
      const std::size_t k = r.count(8, "base-score");
      // The objective transform reads scores row-major n × n_outputs, so a
      // wrong column count would mis-shape that matrix.
      const std::size_t want_k =
          m.task_ == Task::MultiClassification
              ? static_cast<std::size_t>(m.n_classes_)
              : 1;
      FLAML_PARSE_REQUIRE(k == want_k, "compiled artifact: GBDT with " << k
                                           << " output columns, task needs "
                                           << want_k);
      m.base_scores_.resize(k);
      for (auto& v : m.base_scores_) v = r.f64();
      const std::size_t n_scales = r.count(8, "tree-scale");
      m.tree_scales_.resize(n_scales);
      for (auto& v : m.tree_scales_) v = r.f64();
      m.forest_ = read_tables(r);
      FLAML_PARSE_REQUIRE(m.forest_.dist_width == 0,
                          "compiled artifact: GBDT carries leaf distributions");
      FLAML_PARSE_REQUIRE(m.forest_.n_trees() == n_scales,
                          "compiled artifact: " << m.forest_.n_trees()
                              << " trees but " << n_scales << " scales");
      m.forest_.validate(m.n_features_);
      m.forest_.pack();
      m.scorer_.build(m.forest_, m.n_features_);
      break;
    }
    case CompiledKind::Forest: {
      m.forest_ = read_tables(r);
      FLAML_PARSE_REQUIRE(m.forest_.n_trees() >= 1,
                          "compiled artifact: forest with no trees");
      const std::int32_t want_dist =
          is_classification(m.task_) ? m.n_classes_ : 0;
      FLAML_PARSE_REQUIRE(m.forest_.dist_width == want_dist,
                          "compiled artifact: leaf-distribution width "
                              << m.forest_.dist_width << ", task needs "
                              << want_dist);
      m.forest_.validate(m.n_features_);
      m.forest_.pack();
      m.scorer_.build(m.forest_, m.n_features_);
      break;
    }
    case CompiledKind::Linear: {
      m.lin_outputs_ = r.i32();
      const std::int32_t want_outputs =
          m.task_ == Task::MultiClassification ? m.n_classes_ : 1;
      FLAML_PARSE_REQUIRE(m.lin_outputs_ >= 1 && m.lin_outputs_ <= kMaxOutputs,
                          "compiled artifact: output count " << m.lin_outputs_);
      FLAML_PARSE_REQUIRE(m.lin_outputs_ == want_outputs,
                          "compiled artifact: linear model with "
                              << m.lin_outputs_ << " outputs, task needs "
                              << want_outputs);
      m.lin_dim_ = r.u32();
      FLAML_PARSE_REQUIRE(m.lin_dim_ <= kMaxDim,
                          "compiled artifact: encoded dimension " << m.lin_dim_);
      const std::size_t n_plans = r.count(1 + 4 + 4 + 8 + 8, "column-plan");
      FLAML_PARSE_REQUIRE(n_plans >= 1 && n_plans == m.n_features_,
                          "compiled artifact: " << n_plans << " column plans for "
                              << m.n_features_ << " features");
      m.lin_plans_.resize(n_plans);
      for (FeatureEncoder::ColumnPlan& plan : m.lin_plans_) {
        const std::uint8_t cat = r.u8();
        FLAML_PARSE_REQUIRE(cat <= 1, "compiled artifact: bad column type " << int(cat));
        plan.type = cat ? ColumnType::Categorical : ColumnType::Numeric;
        plan.offset = r.u32();
        plan.cardinality = r.i32();
        plan.mean = r.f64();
        plan.inv_std = r.f64();
        // encode writes [offset, offset + width): bound it by dim so a
        // corrupted plan can never index out of the encoded row.
        FLAML_PARSE_REQUIRE(plan.cardinality >= 0,
                            "compiled artifact: negative cardinality "
                                << plan.cardinality);
        const std::size_t width =
            plan.type == ColumnType::Categorical
                ? static_cast<std::size_t>(plan.cardinality)
                : 1;
        FLAML_PARSE_REQUIRE(plan.offset <= m.lin_dim_ &&
                                width <= m.lin_dim_ - plan.offset,
                            "compiled artifact: column range [" << plan.offset
                                << ", " << plan.offset << "+" << width
                                << ") exceeds dimension " << m.lin_dim_);
      }
      const std::size_t n_weights = r.count(8, "weight");
      const std::uint64_t want_weights =
          static_cast<std::uint64_t>(m.lin_outputs_) * (m.lin_dim_ + 1ull);
      FLAML_PARSE_REQUIRE(n_weights == want_weights,
                          "compiled artifact: " << n_weights << " weights, "
                              << "layout needs " << want_weights);
      m.lin_weights_.resize(n_weights);
      for (auto& v : m.lin_weights_) v = r.f64();
      break;
    }
  }
  r.require_done();
  return m;
}

void CompiledModel::save_file(const std::string& path) const {
  write_file_durable(path, seal(kArtifactFormat, serialize()));
}

CompiledModel CompiledModel::load_file(const std::string& path) {
  return deserialize(read_sealed_file(path, kArtifactFormat));
}

}  // namespace flaml::serve
