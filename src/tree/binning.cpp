#include "tree/binning.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace flaml {

int FeatureBins::bin_for(float v) const {
  if (Dataset::is_missing(v)) return missing_bin();
  if (type == ColumnType::Categorical) {
    int code = static_cast<int>(v);
    FLAML_CHECK_MSG(code >= 0 && code < n_value_bins, "category code out of range");
    return code;
  }
  // First edge >= v; bin b covers values v <= edges[b].
  auto it = std::lower_bound(edges.begin(), edges.end(), v);
  int b = static_cast<int>(it - edges.begin());
  return std::min(b, n_value_bins - 1);
}

float FeatureBins::threshold_for(int bin) const {
  FLAML_CHECK(type == ColumnType::Numeric);
  FLAML_CHECK(bin >= 0 && bin < n_value_bins - 1);
  return edges[static_cast<std::size_t>(bin)];
}

BinMapper BinMapper::fit(const DataView& view, int max_bin) {
  FLAML_REQUIRE(max_bin >= 2 && max_bin <= 65534, "max_bin out of range");
  FLAML_REQUIRE(view.n_rows() > 0, "cannot fit bins on an empty view");
  const Dataset& data = view.data();
  BinMapper mapper;
  mapper.features_.resize(data.n_cols());

  std::vector<float> values;
  for (std::size_t f = 0; f < data.n_cols(); ++f) {
    FeatureBins& fb = mapper.features_[f];
    const ColumnInfo& info = data.column_info(f);
    fb.type = info.type;
    if (info.type == ColumnType::Categorical) {
      fb.n_value_bins = info.cardinality;
      continue;
    }
    values.clear();
    values.reserve(view.n_rows());
    for (std::size_t i = 0; i < view.n_rows(); ++i) {
      float v = view.value(i, f);
      if (!Dataset::is_missing(v)) values.push_back(v);
    }
    if (values.empty()) {
      fb.n_value_bins = 1;  // all-missing feature: single degenerate bin
      continue;
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    if (static_cast<int>(values.size()) <= max_bin) {
      // One bin per distinct value; edge between consecutive values is the
      // lower value (split "v <= edge" separates them exactly).
      fb.edges.assign(values.begin(), values.end() - 1);
    } else {
      // Quantile edges over distinct values.
      fb.edges.resize(static_cast<std::size_t>(max_bin - 1));
      for (int b = 1; b < max_bin; ++b) {
        std::size_t pos =
            values.size() * static_cast<std::size_t>(b) / static_cast<std::size_t>(max_bin);
        fb.edges[static_cast<std::size_t>(b - 1)] = values[std::min(pos, values.size() - 1)];
      }
      fb.edges.erase(std::unique(fb.edges.begin(), fb.edges.end()), fb.edges.end());
    }
    fb.n_value_bins = static_cast<int>(fb.edges.size()) + 1;
  }
  return mapper;
}

std::size_t BinnedSubstrate::bytes() const {
  return binned.n_rows() * binned.n_features() * sizeof(std::uint16_t) +
         packed.bytes();
}

BinnedSubstrate build_substrate(const DataView& view, int max_bin) {
  BinnedSubstrate substrate;
  substrate.mapper = BinMapper::fit(view, max_bin);
  substrate.binned = substrate.mapper.encode(view);
  // With the default max_bin = 255 every code fits a byte, so the packed
  // copy costs half the column matrix — and each trainer that shares this
  // substrate skips its own per-grower pack.
  substrate.packed = PackedBins::pack(substrate.binned);
  substrate.max_bin = max_bin;
  return substrate;
}

BinnedView::BinnedView(const BinnedMatrix& matrix, std::size_t n_rows)
    : matrix_(&matrix), n_rows_(n_rows) {
  FLAML_REQUIRE(n_rows <= matrix.n_rows(),
                "BinnedView of " << n_rows << " rows over a " << matrix.n_rows()
                                 << "-row matrix");
}

BinnedMatrix BinnedView::materialize() const {
  FLAML_REQUIRE(matrix_ != nullptr, "materialize() on an empty BinnedView");
  BinnedMatrix out(n_rows_, matrix_->n_features());
  for (std::size_t f = 0; f < matrix_->n_features(); ++f) {
    const auto& src = matrix_->feature(f);
    auto& dst = out.feature(f);
    std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(n_rows_),
              dst.begin());
  }
  return out;
}

BinnedMatrix BinMapper::encode(const DataView& view) const {
  FLAML_REQUIRE(view.n_cols() == features_.size(), "schema mismatch in encode");
  BinnedMatrix binned(view.n_rows(), features_.size());
  for (std::size_t f = 0; f < features_.size(); ++f) {
    const FeatureBins& fb = features_[f];
    auto& col = binned.feature(f);
    for (std::size_t i = 0; i < view.n_rows(); ++i) {
      col[i] = static_cast<std::uint16_t>(fb.bin_for(view.value(i, f)));
    }
  }
  return binned;
}

}  // namespace flaml
