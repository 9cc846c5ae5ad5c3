#include "tree/packed_bins.h"

#include <algorithm>

#include "tree/binning.h"

namespace flaml {

PackedBins PackedBins::pack(const BinnedMatrix& binned) {
  PackedBins out;
  out.n_rows_ = binned.n_rows();
  out.n_features_ = binned.n_features();
  if (out.n_rows_ == 0 || out.n_features_ == 0) return out;

  std::uint16_t max_code = 0;
  for (std::size_t f = 0; f < out.n_features_; ++f) {
    const auto& col = binned.feature(f);
    max_code = std::max(max_code, *std::max_element(col.begin(), col.end()));
  }
  out.wide_ = max_code > 255;

  const std::size_t cells = out.n_rows_ * out.n_features_;
  if (out.wide_) {
    out.codes16_.resize(cells);
    for (std::size_t f = 0; f < out.n_features_; ++f) {
      const auto& col = binned.feature(f);
      std::uint16_t* dst = out.codes16_.data() + f;
      for (std::size_t r = 0; r < out.n_rows_; ++r) {
        dst[r * out.n_features_] = col[r];
      }
    }
  } else {
    out.codes8_.resize(cells);
    for (std::size_t f = 0; f < out.n_features_; ++f) {
      const auto& col = binned.feature(f);
      std::uint8_t* dst = out.codes8_.data() + f;
      for (std::size_t r = 0; r < out.n_rows_; ++r) {
        dst[r * out.n_features_] = static_cast<std::uint8_t>(col[r]);
      }
    }
  }
  return out;
}

}  // namespace flaml
