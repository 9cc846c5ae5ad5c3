// The packed histogram kernel tables: the portable (plain C++) table and,
// on x86, the SSE2 table. Both instantiate the same templates below.
//
// Determinism contract (see hist_kernels.h): every template here walks
// feature tiles in ascending feature order and rows in buffer order, and
// touches each accumulator with either a scalar `+=` or a paired two-lane
// add of independent lanes — so every instantiation is bit-identical to
// the scalar column build in histogram.cpp.

#include "tree/hist_kernels.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#if defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define FLAML_HIST_HAVE_SSE2 1
#include <emmintrin.h>
#endif

namespace flaml {
namespace histdetail {
namespace {

// HistEntry must keep g/h adjacent: the paired add loads both as one
// 16-byte vector from &e.g.
static_assert(offsetof(::flaml::HistEntry, h) ==
                  offsetof(::flaml::HistEntry, g) + sizeof(double),
              "hist kernels pair-add (g, h); they must stay adjacent");

// Features per tile: one (grad, hess) load and one packed-row pointer are
// amortized over the whole tile, and 8 u8 codes share a cache line.
inline constexpr std::size_t kFeatureTile = 8;

struct PortableOps {
  struct Vec {
    double g, h;
  };
  static Vec make(double g, double h) { return {g, h}; }
  static void add(::flaml::HistEntry& e, Vec v) {
    e.g += v.g;
    e.h += v.h;
  }
};

#if defined(FLAML_HIST_HAVE_SSE2)
struct PairOps {
  using Vec = __m128d;
  static Vec make(double g, double h) { return _mm_set_pd(h, g); }
  static void add(::flaml::HistEntry& e, Vec v) {
    _mm_storeu_pd(&e.g, _mm_add_pd(_mm_loadu_pd(&e.g), v));
  }
};
#endif

template <typename Code, typename Ops, bool Unit, bool Iota>
void grad_core(const Code* codes, std::size_t stride,
               const ::flaml::histdetail::GradCall& c) {
  for (std::size_t t = 0; t < c.n_sel; t += kFeatureTile) {
    const std::size_t w = std::min(kFeatureTile, c.n_sel - t);
    ::flaml::HistEntry* base[kFeatureTile];
    std::size_t col[kFeatureTile];
    for (std::size_t j = 0; j < w; ++j) {
      const std::size_t f = static_cast<std::size_t>(c.features[t + j]);
      base[j] = c.hist + c.offsets[f];
      col[j] = f;
    }
    // Unit-hessian path: two rows in flight. Per feature j, row i's add is
    // issued before row i+1's, so same-bin collisions still accumulate in
    // row order (bitwise equal to the scalar reference) while distinct bins
    // — the common case — give the CPU two independent load-add-store
    // chains to overlap. The non-unit path stays single-row: its extra
    // n-counter RMW per entry makes the unrolled body spill and run slower.
    std::size_t i = 0;
    if constexpr (Unit)
    for (; i + 1 < c.count; i += 2) {
      const std::uint32_t p0 = Iota ? static_cast<std::uint32_t>(i) : c.rows[i];
      const std::uint32_t p1 =
          Iota ? static_cast<std::uint32_t>(i + 1) : c.rows[i + 1];
      const auto gh0 = Ops::make(c.grad[p0], Unit ? 1.0 : c.hess[p0]);
      const auto gh1 = Ops::make(c.grad[p1], Unit ? 1.0 : c.hess[p1]);
      const Code* r0 = codes + static_cast<std::size_t>(p0) * stride;
      const Code* r1 = codes + static_cast<std::size_t>(p1) * stride;
      for (std::size_t j = 0; j < w; ++j) {
        ::flaml::HistEntry& e0 = base[j][r0[col[j]]];
        Ops::add(e0, gh0);
        if constexpr (!Unit) e0.n += 1;
        ::flaml::HistEntry& e1 = base[j][r1[col[j]]];
        Ops::add(e1, gh1);
        if constexpr (!Unit) e1.n += 1;
      }
    }
    for (; i < c.count; ++i) {
      const std::uint32_t pos =
          Iota ? static_cast<std::uint32_t>(i) : c.rows[i];
      const auto gh = Ops::make(c.grad[pos], Unit ? 1.0 : c.hess[pos]);
      const Code* row = codes + static_cast<std::size_t>(pos) * stride;
      for (std::size_t j = 0; j < w; ++j) {
        ::flaml::HistEntry& e = base[j][row[col[j]]];
        Ops::add(e, gh);
        if constexpr (!Unit) e.n += 1;
      }
    }
  }
  if constexpr (Unit) {
    // h accumulated exact integer sums of 1.0; materialize the counts.
    for (std::size_t s = 0; s < c.n_sel; ++s) {
      const std::size_t f = static_cast<std::size_t>(c.features[s]);
      ::flaml::HistEntry* e = c.hist + c.offsets[f];
      ::flaml::HistEntry* const end = c.hist + c.offsets[f + 1];
      for (; e != end; ++e) e->n = static_cast<std::uint32_t>(e->h);
    }
  }
}

template <typename Code, bool Negate, bool Iota, bool Weighted>
void class_core(const Code* codes, std::size_t stride,
                const ::flaml::histdetail::ClassCall& c) {
  const std::size_t n = c.f_end - c.f_begin;
  for (std::size_t t = 0; t < n; t += kFeatureTile) {
    const std::size_t w = std::min(kFeatureTile, n - t);
    const std::size_t f0 = c.f_begin + t;
    double* base[kFeatureTile];
    for (std::size_t j = 0; j < w; ++j) base[j] = c.hist + c.offsets[f0 + j] * c.k;
    for (std::size_t i = 0; i < c.count; ++i) {
      const std::uint32_t pos =
          Iota ? static_cast<std::uint32_t>(i) : c.rows[i];
      double wt = Weighted ? c.weights[pos] : 1.0;
      if constexpr (Negate) wt = -wt;
      const std::size_t lbl = static_cast<std::size_t>(c.labels[pos]);
      const Code* row = codes + static_cast<std::size_t>(pos) * stride + f0;
      for (std::size_t j = 0; j < w; ++j) {
        base[j][static_cast<std::size_t>(row[j]) * c.k + lbl] += wt;
      }
    }
  }
}

template <typename Code, bool Weighted>
void fill_core(const Code* codes, std::size_t stride,
               const ::flaml::histdetail::FillCall& c) {
  const Code* col = codes + c.feature;
  for (std::size_t i = 0; i < c.count; ++i) {
    const std::uint32_t pos = c.rows[i];
    c.out[static_cast<std::size_t>(col[static_cast<std::size_t>(pos) * stride]) *
              c.k +
          static_cast<std::size_t>(c.labels[pos])] +=
        Weighted ? c.weights[pos] : 1.0;
  }
}

// Runtime-flag fan-out to the fully specialized cores.

template <typename Code, typename Ops>
void grad_entry(const Code* codes, std::size_t stride,
                const ::flaml::histdetail::GradCall& c) {
  if (c.unit) {
    if (c.iota) return grad_core<Code, Ops, true, true>(codes, stride, c);
    return grad_core<Code, Ops, true, false>(codes, stride, c);
  }
  if (c.iota) return grad_core<Code, Ops, false, true>(codes, stride, c);
  return grad_core<Code, Ops, false, false>(codes, stride, c);
}

template <typename Code>
void class_entry(const Code* codes, std::size_t stride,
                 const ::flaml::histdetail::ClassCall& c) {
  const bool wtd = c.weights != nullptr;
  if (c.negate) {
    if (c.iota) {
      if (wtd) return class_core<Code, true, true, true>(codes, stride, c);
      return class_core<Code, true, true, false>(codes, stride, c);
    }
    if (wtd) return class_core<Code, true, false, true>(codes, stride, c);
    return class_core<Code, true, false, false>(codes, stride, c);
  }
  if (c.iota) {
    if (wtd) return class_core<Code, false, true, true>(codes, stride, c);
    return class_core<Code, false, true, false>(codes, stride, c);
  }
  if (wtd) return class_core<Code, false, false, true>(codes, stride, c);
  return class_core<Code, false, false, false>(codes, stride, c);
}

template <typename Code>
void fill_entry(const Code* codes, std::size_t stride,
                const ::flaml::histdetail::FillCall& c) {
  if (c.weights != nullptr) return fill_core<Code, true>(codes, stride, c);
  return fill_core<Code, false>(codes, stride, c);
}

}  // namespace

const KernelFns* portable_fns() {
  static const KernelFns fns = {
      &grad_entry<std::uint8_t, PortableOps>,
      &grad_entry<std::uint16_t, PortableOps>,
      &class_entry<std::uint8_t>,
      &class_entry<std::uint16_t>,
      &fill_entry<std::uint8_t>,
      &fill_entry<std::uint16_t>,
  };
  return &fns;
}

const KernelFns* sse2_fns() {
#if defined(FLAML_HIST_HAVE_SSE2)
  static const KernelFns fns = {
      &grad_entry<std::uint8_t, PairOps>,
      &grad_entry<std::uint16_t, PairOps>,
      &class_entry<std::uint8_t>,
      &class_entry<std::uint16_t>,
      &fill_entry<std::uint8_t>,
      &fill_entry<std::uint16_t>,
  };
  return &fns;
#else
  return nullptr;
#endif
}

}  // namespace histdetail
}  // namespace flaml
