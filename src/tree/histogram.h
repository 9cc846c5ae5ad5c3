// Histogram construction for the tree growers, extracted so that the two
// layouts — the gradient-pair layout of grower.cpp and the per-class slice
// layout of class_grower.cpp — share one implementation and can be tested
// (and parallelized) in isolation.
//
// Layouts, with offsets[f] = first bin slot of feature f:
//   * gradient: hist[offsets[f] + bin] is a (g, h, n) triple;
//   * class:    hist[(offsets[f] + bin) * k + c] is the weighted count of
//               class c in bin `bin` of feature f.
//
// Parallelism contract: builds shard over FEATURES, never rows. Each
// feature's slice [offsets[f], offsets[f+1]) is a disjoint memory region,
// and within a feature the rows are always accumulated in buffer order on a
// single thread — so the parallel build is race-free and bit-identical to
// the serial build for every thread count. Subtraction is element-wise and
// deterministic by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "tree/binning.h"
#include "tree/packed_bins.h"

namespace flaml {

struct HistEntry {
  double g = 0.0;
  double h = 0.0;
  std::uint32_t n = 0;
};

// Histogram build implementations:
//   * Scalar   — the column-major reference loops below (no packed layout).
//                Production never runs them: they are the 0-ulp oracle of
//                the differential harness and the benches' baseline.
//   * Portable — packed row-major tiles, plain C++ accumulators.
//   * Sse2     — packed tiles with a paired 128-bit (g, h) add.
// All three produce bit-identical histograms: Portable/Sse2 run the same
// adds in the same order as Scalar (see hist_kernels.h).
enum class HistKernel { Scalar, Portable, Sse2 };

const char* hist_kernel_name(HistKernel k);
// Whether this build can run `k` (Sse2 needs an x86 target).
bool hist_kernel_available(HistKernel k);
// The kernel the growers use: the platform's packed kernel — Sse2 on x86,
// Portable elsewhere.
HistKernel active_hist_kernel();

// Per-feature start slots: offsets[f] sums n_bins() of features before f;
// offsets.back() is the total bin count.
std::vector<std::size_t> histogram_offsets(const BinMapper& mapper);

// Intra-build parallelism: a null pool (or n_threads <= 1) means serial.
struct HistParallel {
  ThreadPool* pool = nullptr;
  int n_threads = 1;
};

// Accumulate (grad, hess, count) per bin for `features` over the rows
// rows[0..count). hist is resized and zeroed. grad/hess are indexed by row
// position (the values stored in `rows`), not by rows' index.
void build_gradient_histogram(const BinnedMatrix& binned,
                              const std::vector<std::size_t>& offsets,
                              const std::vector<int>& features,
                              const std::uint32_t* rows, std::size_t count,
                              const std::vector<double>& grad,
                              const std::vector<double>& hess,
                              std::vector<HistEntry>& hist,
                              const HistParallel& par = {});

// Packed fast path of build_gradient_histogram: identical signature
// semantics over the row-major PackedBins layout. `unit_hess` asserts that
// hess[pos] == 1.0 for every addressed row (the caller checks once per
// tree); the kernel then drops the per-row count update and derives n from
// the h sums — exact, since they are integer-valued doubles. `kernel` must
// be a packed kernel (not Scalar) and available. Bit-identical to the
// scalar build at every thread count.
void build_gradient_histogram_packed(
    const PackedBins& packed, const std::vector<std::size_t>& offsets,
    const std::vector<int>& features, const std::uint32_t* rows,
    std::size_t count, const std::vector<double>& grad,
    const std::vector<double>& hess, bool unit_hess,
    std::vector<HistEntry>& hist, HistKernel kernel,
    const HistParallel& par = {});

// out = parent - child, element-wise.
void subtract_gradient_histogram(const std::vector<HistEntry>& parent,
                                 const std::vector<HistEntry>& child,
                                 std::vector<HistEntry>& out);

// parent -= child in place (the larger sibling inherits the parent buffer).
void subtract_gradient_histogram_inplace(std::vector<HistEntry>& parent,
                                         const std::vector<HistEntry>& child);

// Weighted class-count histogram over ALL mapper features (class trees do
// per-split feature sampling instead of per-tree). Empty weights = 1.0 per
// row. hist is resized and zeroed to offsets.back() * n_classes.
void build_class_histogram(const BinnedMatrix& binned,
                           const std::vector<std::size_t>& offsets,
                           int n_classes, const std::uint32_t* rows,
                           std::size_t count, const std::vector<int>& labels,
                           const std::vector<double>& weights,
                           std::vector<double>& hist,
                           const HistParallel& par = {});

// Packed fast path of build_class_histogram (all mapper features, like the
// scalar build). Bit-identical to the scalar build at every thread count.
void build_class_histogram_packed(const PackedBins& packed,
                                  const std::vector<std::size_t>& offsets,
                                  int n_classes, const std::uint32_t* rows,
                                  std::size_t count,
                                  const std::vector<int>& labels,
                                  const std::vector<double>& weights,
                                  std::vector<double>& hist, HistKernel kernel,
                                  const HistParallel& par = {});

// Remove the rows' mass from an inherited parent histogram in place — the
// class-layout analogue of subtract: afterwards hist equals a direct build
// over the remaining sibling rows (up to float summation order).
void remove_rows_from_class_histogram(const BinnedMatrix& binned,
                                      const std::vector<std::size_t>& offsets,
                                      int n_classes, const std::uint32_t* rows,
                                      std::size_t count,
                                      const std::vector<int>& labels,
                                      const std::vector<double>& weights,
                                      std::vector<double>& hist,
                                      const HistParallel& par = {});

// Packed fast path of remove_rows_from_class_histogram. Accumulates -w,
// which IEEE-754 guarantees equals the legacy `-=` bit for bit.
void remove_rows_from_class_histogram_packed(
    const PackedBins& packed, const std::vector<std::size_t>& offsets,
    int n_classes, const std::uint32_t* rows, std::size_t count,
    const std::vector<int>& labels, const std::vector<double>& weights,
    std::vector<double>& hist, HistKernel kernel, const HistParallel& par = {});

// One feature's slice in compact scratch layout [bin * k + c]: the
// small-leaf path that retains no histogram rebuilds exactly this on
// demand. out is resized/zeroed to n_bins * n_classes.
void fill_feature_class_counts(const std::vector<std::uint16_t>& col,
                               int n_bins, int n_classes,
                               const std::uint32_t* rows, std::size_t count,
                               const std::vector<int>& labels,
                               const std::vector<double>& weights,
                               std::vector<double>& out);

// Packed fast path of fill_feature_class_counts. The row-major layout also
// helps here: the compact small-leaf scan calls this per candidate feature
// over the SAME small row set, so the rows' packed lines stay hot across
// features.
void fill_feature_class_counts_packed(const PackedBins& packed, int feature,
                                      int n_bins, int n_classes,
                                      const std::uint32_t* rows,
                                      std::size_t count,
                                      const std::vector<int>& labels,
                                      const std::vector<double>& weights,
                                      std::vector<double>& out,
                                      HistKernel kernel);

}  // namespace flaml
