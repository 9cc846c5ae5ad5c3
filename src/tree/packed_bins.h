// Width-minimal, row-major bin codes — the one layout tree training reads.
//
// codes[row * n_features + f] is the bin of (row, f), narrowed to uint8
// whenever every code fits (always at the default max_bin = 255, unless a
// categorical feature has more than 255 categories). The histogram kernels
// (src/tree/hist_kernels.cpp) walk a feature TILE per row: one gradient
// load is amortized over the whole tile and the tile's codes share a cache
// line. The row partition reads one code per row at stride n_features.
//
// BinMapper::encode_packed (src/tree/binning.h) encodes a view straight
// into this layout. pack() builds the same layout from the column-major
// BinnedMatrix; it exists only as the test oracle for that encoder.
//
// A PackedBins is a pure function of the rows it encodes (the width is
// chosen from the actual maximum code, so the layout is deterministic and
// machine-independent) and is immutable once built — concurrent trials
// share one instance through the SubstrateCache with no synchronization.
#pragma once

#include <cstdint>
#include <vector>

namespace flaml {

class BinMapper;
class BinnedMatrix;

class PackedBins {
 public:
  PackedBins() = default;

  // Test oracle: transpose + narrow `binned` (scans the codes once to pick
  // the width).
  static PackedBins pack(const BinnedMatrix& binned);

  bool empty() const { return n_rows_ == 0 || n_features_ == 0; }
  std::size_t n_rows() const { return n_rows_; }
  std::size_t n_features() const { return n_features_; }
  // True when codes are stored as uint16 (some code > 255).
  bool wide() const { return wide_; }

  // Raw code planes for the kernels; exactly one is non-empty.
  const std::uint8_t* codes8() const { return codes8_.data(); }
  const std::uint16_t* codes16() const { return codes16_.data(); }

  std::uint16_t bin(std::size_t row, std::size_t f) const {
    const std::size_t at = row * n_features_ + f;
    return wide_ ? codes16_[at] : codes8_[at];
  }

  // Heap footprint (cache accounting).
  std::size_t bytes() const {
    return codes8_.size() * sizeof(std::uint8_t) +
           codes16_.size() * sizeof(std::uint16_t);
  }

 private:
  friend class BinMapper;  // encode_packed fills the planes directly

  std::size_t n_rows_ = 0;
  std::size_t n_features_ = 0;
  bool wide_ = false;
  std::vector<std::uint8_t> codes8_;
  std::vector<std::uint16_t> codes16_;
};

}  // namespace flaml
