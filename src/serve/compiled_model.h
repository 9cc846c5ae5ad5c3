// Post-search model compilation for the serving path (ROADMAP: "compiled
// predictor — flatten the best model for serving-side latency").
//
// compile() flattens a trained GBDT / random-forest / extra-trees model
// into the contiguous struct-of-arrays tables of flat_tree.h (linear models
// keep their weight matrix plus the encoder's column plans), and
// predict_many() is the batched serving engine on top: rows are sharded
// over src/common/thread_pool and each shard scores tile by tile. When
// every tree fits a 64-bit leaf bitvector the tiles run through the
// QuickScorer mask tables (quick_scorer.h — branchless, no dependent node
// loads); wider trees fall back to the packed-node walker
// (FlatForest::route_block). Either way per-row accumulation stays in tree
// order — so any n_threads in 1..N is byte-identical to serial AND to the
// interpreted Model::predict, per the PR 1–2 determinism contract. The
// differential suite (tests/test_compiled_predict.cpp) pins that equality
// across the whole learner zoo, all tasks, and NaN-bearing inputs.
//
// serialize()/deserialize() persist the compiled form in the checksummed
// `flaml-compiled v1` container (artifact.h); deserialize validates every
// structural invariant before use, so a corrupt or adversarial artifact can
// only produce SerializationError (tests/test_compiled_artifact.cpp).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "linear/encoder.h"
#include "metrics/error_metric.h"
#include "serve/flat_tree.h"
#include "serve/quick_scorer.h"

namespace flaml {
class GBDTModel;
class ForestModel;
class LinearModel;
}  // namespace flaml

namespace flaml::serve {

enum class CompiledKind : std::uint8_t { Gbdt = 0, Forest = 1, Linear = 2 };

class CompiledModel {
 public:
  CompiledModel() = default;

  CompiledKind kind() const { return kind_; }
  Task task() const { return task_; }
  int n_classes() const { return n_classes_; }
  // Minimum column count a prediction view must provide.
  std::size_t n_features() const { return n_features_; }
  std::size_t n_trees() const { return forest_.n_trees(); }
  std::size_t n_nodes() const { return forest_.n_internal() + forest_.n_leaves(); }

  // Batched prediction, bit-identical to the interpreted model's predict for
  // every n_threads (and to serial). The view's dataset needs at least
  // n_features() columns.
  Predictions predict_many(const DataView& view, int n_threads = 1) const;

  // Binary payload <-> compiled model (save_file/load_file seal it in the
  // kArtifactFormat container of artifact.h; serialize returns the raw
  // payload so tests can target payload bytes directly). deserialize validates structurally and
  // throws SerializationError on any damage.
  std::string serialize() const;
  static CompiledModel deserialize(const std::string& payload);

  // Durable sealed-file I/O (src/common/sealed_file.h).
  void save_file(const std::string& path) const;
  static CompiledModel load_file(const std::string& path);

 private:
  CompiledKind kind_ = CompiledKind::Gbdt;
  Task task_ = Task::Regression;
  int n_classes_ = 0;
  std::uint32_t n_features_ = 0;

  // Tree kinds. scorer_ holds the QuickScorer mask tables when every tree
  // has <= 64 leaves (scorer_.ok()); otherwise predict falls back to
  // forest_.route_block. Derived from forest_, never serialized.
  FlatForest forest_;
  QuickScorer scorer_;
  std::vector<double> base_scores_;  // GBDT: per output column
  std::vector<double> tree_scales_;  // GBDT: learning rate per tree

  // Linear kind.
  std::int32_t lin_outputs_ = 0;
  std::uint32_t lin_dim_ = 0;
  std::vector<double> lin_weights_;  // row-major n_outputs × (dim + 1)
  std::vector<FeatureEncoder::ColumnPlan> lin_plans_;

  Predictions predict_gbdt(const DataView& view, int n_threads) const;
  Predictions predict_forest(const DataView& view, int n_threads) const;
  Predictions predict_linear(const DataView& view, int n_threads) const;

  friend CompiledModel compile(const GBDTModel& model);
  friend CompiledModel compile(const ForestModel& model);
  friend CompiledModel compile(const LinearModel& model);
};

// Flatten a trained model. Throws InvalidArgument on an untrained model.
CompiledModel compile(const GBDTModel& model);
CompiledModel compile(const ForestModel& model);
CompiledModel compile(const LinearModel& model);

// Compile from a model's text serialization (`gbdt v1` / `forest v1` /
// `linear v1`): peeks the magic token and dispatches to the right loader.
// A `flaml-model v1 <learner>` wrapper (the save_best_model file format,
// what `flaml_train --model-out` writes) is unwrapped transparently.
// The stream must be seekable (string streams and files are).
CompiledModel compile_saved(std::istream& in);

// Compile the save_best_model blob format (`flaml-model v1 <learner>\n` +
// model text) — the bytes AutoML::save_best_model writes and resume
// checkpoints carry.
CompiledModel compile_blob(const std::string& blob);

// Compile the best-model blob stored in a search checkpoint file. Throws
// InvalidArgument when the checkpoint has no blob (mid-search snapshot or
// ensemble mode).
CompiledModel compile_checkpoint_file(const std::string& path);

}  // namespace flaml::serve
