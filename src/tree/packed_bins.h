// Width-minimal, row-major packed bin codes — the memory layout the SIMD
// histogram kernels (src/tree/hist_kernels.cpp) read.
//
// BinnedMatrix stores one uint16 column per feature, which is the right
// shape for partitioning (one feature's codes, contiguous) but the wrong
// shape for histogram building: every feature pass re-gathers the same
// gradient/hessian entries and streams a full 2-byte column. PackedBins
// transposes the codes into one contiguous row-major block — codes[row *
// n_features + f] — and narrows them to uint8 whenever every code fits
// (max_bin <= 256 after the per-feature missing bin, i.e. virtually always
// with the default max_bin = 255). The kernels then walk a feature TILE per
// row: one gradient load is amortized over the whole tile and the tile's
// codes share a cache line.
//
// A PackedBins is a pure function of the BinnedMatrix it was packed from
// (the width is chosen from the actual maximum code, so the layout is
// deterministic and machine-independent) and is immutable after pack() —
// concurrent trials share one instance through the SubstrateCache with no
// synchronization.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace flaml {

class BinnedMatrix;

class PackedBins {
 public:
  PackedBins() = default;

  // Transpose + narrow `binned` (scans the codes once to pick the width).
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
  std::size_t n_rows_ = 0;
  std::size_t n_features_ = 0;
  bool wide_ = false;
  std::vector<std::uint8_t> codes8_;
  std::vector<std::uint16_t> codes16_;
};

// The packed layout a tree grower reads: borrowed from a shared substrate
// when one is given, else packed from `binned` once, on first use. get() is
// thread-safe (forests grow trees concurrently from one grower).
class LazyPackedBins {
 public:
  // `shared` must describe the same matrix as `binned` (FLAML_REQUIRE).
  LazyPackedBins(const BinnedMatrix& binned, const PackedBins* shared);

  const PackedBins& get() const;

 private:
  const BinnedMatrix* binned_;
  const PackedBins* shared_;
  mutable std::once_flag once_;
  mutable PackedBins owned_;
};

}  // namespace flaml
