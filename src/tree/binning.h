// Feature discretization for histogram-based tree learning.
//
// Numeric features are quantile-binned into at most `max_bin` bins (exact
// distinct values when there are few); categorical features map code c to
// bin c. Every feature reserves one extra trailing bin for missing values.
// Trees are grown on bin indices; the final tree stores raw thresholds so
// prediction needs no BinMapper.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "tree/packed_bins.h"

namespace flaml {

struct FeatureBins {
  ColumnType type = ColumnType::Numeric;
  // Numeric: ascending upper edges; bin b covers (edges[b-1], edges[b]],
  // bin 0 covers (-inf, edges[0]]. Values above the last edge land in the
  // last non-missing bin. Size = n_value_bins - 1 (may be 0 when constant).
  std::vector<float> edges;
  // Non-missing bins. Categorical: the cardinality.
  int n_value_bins = 1;

  // Total bins including the trailing missing bin.
  int n_bins() const { return n_value_bins + 1; }
  int missing_bin() const { return n_value_bins; }
  int bin_for(float v) const;
  // Raw threshold for a numeric split "bin <= b" (the upper edge of bin b).
  float threshold_for(int bin) const;
};

// Column-major binned matrix; bins_[feature][row]. Test oracle only:
// training reads PackedBins (encode_packed); this layout and encode() are
// the independent reference the packed encoder and the scalar histogram
// builds (src/tree/histogram.h) are checked against.
class BinnedMatrix {
 public:
  BinnedMatrix() = default;
  BinnedMatrix(std::size_t n_rows, std::size_t n_features)
      : n_rows_(n_rows),
        bins_(n_features, std::vector<std::uint16_t>(n_rows)) {}

  std::size_t n_rows() const { return n_rows_; }
  std::size_t n_features() const { return bins_.size(); }
  const std::vector<std::uint16_t>& feature(std::size_t f) const { return bins_[f]; }
  std::vector<std::uint16_t>& feature(std::size_t f) { return bins_[f]; }
  std::uint16_t bin(std::size_t row, std::size_t f) const { return bins_[f][row]; }

 private:
  std::size_t n_rows_ = 0;
  std::vector<std::vector<std::uint16_t>> bins_;
};

class BinMapper {
 public:
  // Learn bin boundaries from the rows of `view`. max_bin in [2, 65534].
  static BinMapper fit(const DataView& view, int max_bin);

  std::size_t n_features() const { return features_.size(); }
  const FeatureBins& feature(std::size_t f) const { return features_[f]; }

  // Encode the rows of `view` (same dataset schema as the fitted one) into
  // the row-major training layout. Row-independent: the first n rows of
  // encode_packed(view) equal encode_packed(view.prefix(n)).
  PackedBins encode_packed(const DataView& view) const;

  // Test oracle: the same codes in the column-major BinnedMatrix.
  BinnedMatrix encode(const DataView& view) const;

 private:
  std::vector<FeatureBins> features_;
};

// A fitted BinMapper together with the packed codes of one exact row set.
// Trainers keep raw references into `mapper`/`packed` for the duration of
// a fit, so shared substrates travel as shared_ptr<const BinnedSubstrate>
// and are immutable once built.
struct BinnedSubstrate {
  BinMapper mapper;
  PackedBins packed;
  // Always empty: production never builds the column layout. The member
  // exists only because bench/e2e/search.cpp (tree_probes), which must
  // compile unedited, reads it — it packs `binned` when `packed` is empty
  // and hands it to the scalar histogram builds, neither of which happens.
  BinnedMatrix binned;
  int max_bin = 0;  // the fit() parameter, for compatibility checks

  // Heap footprint of the packed codes (cache accounting).
  std::size_t bytes() const { return packed.bytes(); }
};

// Fit + encode_packed over exactly the rows of `view` — the invariant the
// cross-trial substrate cache (src/automl/substrate_cache.h) relies on.
BinnedSubstrate build_substrate(const DataView& view, int max_bin);

// Handed to trainers through TrainContext / trainer params: returns a
// shared substrate for EXACTLY the trainer's training rows at the given
// max_bin, or null to make the trainer fit its own. Must be safe to call
// from concurrent trials.
using SubstrateProvider =
    std::function<std::shared_ptr<const BinnedSubstrate>(int max_bin)>;

// The substrate a trainer fits on: the provider's shared one when it has
// one for exactly `view`'s rows at `max_bin`, else a fresh
// build_substrate(view, max_bin). Both are byte-identical by construction,
// so the provider can never change the model.
std::shared_ptr<const BinnedSubstrate> acquire_substrate(
    const SubstrateProvider& provider, const DataView& view, int max_bin);

}  // namespace flaml
