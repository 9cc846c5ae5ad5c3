// Internal entry points of the per-ISA histogram kernels (implementation
// detail of histogram.cpp — include from .cpp files only).
//
// Each ISA exports one KernelFns table over the PackedBins row-major code
// planes (u8/u16). Every table runs the SAME algorithm in the SAME order:
// feature tiles of kFeatureTile, rows accumulated in buffer order, (g, h)
// added as one paired two-lane add. A paired `_mm_add_pd` performs the same
// two independent IEEE-754 additions as the two scalar `+=`s — there are no
// multiplies anywhere, so no FMA contraction can change results — which
// makes every table bit-identical to the portable one AND to the legacy
// scalar column build. That invariant is what lets the fast path default on
// under the existing golden digests; the differential harness
// (tests/test_histogram_kernels.cpp) pins it with a 0-ulp bound.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tree/histogram.h"

namespace flaml {
namespace histdetail {

// Gradient-pair build over a selected feature subset. `hist` is the full
// offsets-indexed layout; only the selected features' slices are written.
struct GradCall {
  const std::size_t* offsets = nullptr;
  const int* features = nullptr;  // selected feature ids
  std::size_t n_sel = 0;
  const std::uint32_t* rows = nullptr;
  std::size_t count = 0;
  const double* grad = nullptr;
  const double* hess = nullptr;  // ignored when unit
  // hess ≡ 1.0 for every addressed row: accumulate h only and derive
  // n = (uint32)h per slot afterwards (exact — integer sums in a double).
  bool unit = false;
  bool iota = false;  // rows[i] == i for all i < count: skip the gather
  HistEntry* hist = nullptr;
};

// Weighted class-count build/remove over the contiguous feature range
// [f_begin, f_end) — class trees always histogram every feature.
struct ClassCall {
  const std::size_t* offsets = nullptr;
  std::size_t f_begin = 0;
  std::size_t f_end = 0;
  std::size_t k = 0;  // n_classes
  const std::uint32_t* rows = nullptr;
  std::size_t count = 0;
  const int* labels = nullptr;
  const double* weights = nullptr;  // null = unit weights
  // Remove mode: accumulate -w. IEEE: x + (-w) == x - w bitwise, so one
  // kernel serves build and the subtraction trick identically to legacy.
  bool negate = false;
  bool iota = false;
  double* hist = nullptr;
};

// One feature's compact [bin * k + c] slice (small-leaf split scan).
struct FillCall {
  std::size_t feature = 0;
  std::size_t k = 0;
  const std::uint32_t* rows = nullptr;
  std::size_t count = 0;
  const int* labels = nullptr;
  const double* weights = nullptr;  // null = unit weights
  double* out = nullptr;
};

struct KernelFns {
  void (*grad_u8)(const std::uint8_t* codes, std::size_t stride,
                  const GradCall& c) = nullptr;
  void (*grad_u16)(const std::uint16_t* codes, std::size_t stride,
                   const GradCall& c) = nullptr;
  void (*cls_u8)(const std::uint8_t* codes, std::size_t stride,
                 const ClassCall& c) = nullptr;
  void (*cls_u16)(const std::uint16_t* codes, std::size_t stride,
                  const ClassCall& c) = nullptr;
  void (*fill_u8)(const std::uint8_t* codes, std::size_t stride,
                  const FillCall& c) = nullptr;
  void (*fill_u16)(const std::uint16_t* codes, std::size_t stride,
                   const FillCall& c) = nullptr;
};

// Always present (plain C++, no intrinsics).
const KernelFns* portable_fns();
// Null when the build targets a non-x86 ISA without SSE2.
const KernelFns* sse2_fns();

}  // namespace histdetail
}  // namespace flaml
