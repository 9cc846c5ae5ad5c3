#include "tree/histogram.h"

#include <algorithm>

#include "common/error.h"
#include "tree/hist_kernels.h"

namespace flaml {

namespace {

// Below this row count a parallel build costs more in task handoff than the
// scan itself; the cutoff depends only on the data, so serial and parallel
// callers take the same path for the same leaf.
constexpr std::size_t kMinRowsForParallelBuild = 512;

const histdetail::KernelFns* fns_for(HistKernel k) {
  switch (k) {
    case HistKernel::Portable:
      return histdetail::portable_fns();
    case HistKernel::Sse2:
      return histdetail::sse2_fns();
    case HistKernel::Scalar:
      break;
  }
  return nullptr;
}

// rows == [0, count) exactly — the root build. Detected per call: the scan
// is one compare per row vs n_features accumulates per row for the build,
// and non-root leaves bail out on the first mismatch.
bool rows_are_iota(const std::uint32_t* rows, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (rows[i] != static_cast<std::uint32_t>(i)) return false;
  }
  return true;
}

}  // namespace

const char* hist_kernel_name(HistKernel k) {
  switch (k) {
    case HistKernel::Scalar:
      return "scalar";
    case HistKernel::Portable:
      return "portable";
    case HistKernel::Sse2:
      return "sse2";
  }
  return "unknown";
}

bool hist_kernel_available(HistKernel k) {
  switch (k) {
    case HistKernel::Scalar:
    case HistKernel::Portable:
      return true;
    case HistKernel::Sse2:
      return histdetail::sse2_fns() != nullptr;
  }
  return false;
}

HistKernel active_hist_kernel() {
  return hist_kernel_available(HistKernel::Sse2) ? HistKernel::Sse2
                                                 : HistKernel::Portable;
}

std::vector<std::size_t> histogram_offsets(const BinMapper& mapper) {
  std::vector<std::size_t> offsets(mapper.n_features() + 1, 0);
  for (std::size_t f = 0; f < mapper.n_features(); ++f) {
    offsets[f + 1] = offsets[f] + static_cast<std::size_t>(mapper.feature(f).n_bins());
  }
  return offsets;
}

void build_gradient_histogram(const BinnedMatrix& binned,
                              const std::vector<std::size_t>& offsets,
                              const std::vector<int>& features,
                              const std::uint32_t* rows, std::size_t count,
                              const std::vector<double>& grad,
                              const std::vector<double>& hess,
                              std::vector<HistEntry>& hist,
                              const HistParallel& par) {
  hist.assign(offsets.back(), HistEntry{});
  auto fill_feature = [&](int f) {
    const auto& col = binned.feature(static_cast<std::size_t>(f));
    HistEntry* base = hist.data() + offsets[static_cast<std::size_t>(f)];
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t pos = rows[i];
      HistEntry& e = base[col[pos]];
      e.g += grad[pos];
      e.h += hess[pos];
      e.n += 1;
    }
  };
  ThreadPool* pool =
      count >= kMinRowsForParallelBuild && features.size() >= 2 ? par.pool : nullptr;
  sharded_for(pool, par.n_threads, features.size(),
              [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) fill_feature(features[i]);
              });
}

void build_gradient_histogram_packed(
    const PackedBins& packed, const std::vector<std::size_t>& offsets,
    const std::vector<int>& features, const std::uint32_t* rows,
    std::size_t count, const std::vector<double>& grad,
    const std::vector<double>& hess, bool unit_hess,
    std::vector<HistEntry>& hist, HistKernel kernel, const HistParallel& par) {
  const histdetail::KernelFns* fns = fns_for(kernel);
  FLAML_REQUIRE(fns != nullptr, "'" << hist_kernel_name(kernel)
                                    << "' is not a packed histogram kernel");
  hist.assign(offsets.back(), HistEntry{});
  if (count == 0 || features.empty()) return;
  histdetail::GradCall call;
  call.offsets = offsets.data();
  call.rows = rows;
  call.count = count;
  call.grad = grad.data();
  call.hess = hess.data();
  call.unit = unit_hess;
  call.iota = rows_are_iota(rows, count);
  call.hist = hist.data();
  const std::size_t stride = packed.n_features();
  ThreadPool* pool =
      count >= kMinRowsForParallelBuild && features.size() >= 2 ? par.pool : nullptr;
  sharded_for(pool, par.n_threads, features.size(),
              [&](std::size_t begin, std::size_t end) {
                histdetail::GradCall c = call;
                c.features = features.data() + begin;
                c.n_sel = end - begin;
                if (packed.wide()) {
                  fns->grad_u16(packed.codes16(), stride, c);
                } else {
                  fns->grad_u8(packed.codes8(), stride, c);
                }
              });
}

void subtract_gradient_histogram(const std::vector<HistEntry>& parent,
                                 const std::vector<HistEntry>& child,
                                 std::vector<HistEntry>& out) {
  out.resize(parent.size());
  for (std::size_t i = 0; i < parent.size(); ++i) {
    out[i].g = parent[i].g - child[i].g;
    out[i].h = parent[i].h - child[i].h;
    out[i].n = parent[i].n - child[i].n;
  }
}

void subtract_gradient_histogram_inplace(std::vector<HistEntry>& parent,
                                         const std::vector<HistEntry>& child) {
  for (std::size_t i = 0; i < parent.size(); ++i) {
    parent[i].g -= child[i].g;
    parent[i].h -= child[i].h;
    parent[i].n -= child[i].n;
  }
}

void build_class_histogram(const BinnedMatrix& binned,
                           const std::vector<std::size_t>& offsets,
                           int n_classes, const std::uint32_t* rows,
                           std::size_t count, const std::vector<int>& labels,
                           const std::vector<double>& weights,
                           std::vector<double>& hist, const HistParallel& par) {
  const std::size_t k = static_cast<std::size_t>(n_classes);
  hist.assign(offsets.back() * k, 0.0);
  auto fill_feature = [&](std::size_t f) {
    const auto& col = binned.feature(f);
    double* base = hist.data() + offsets[f] * k;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t pos = rows[i];
      base[static_cast<std::size_t>(col[pos]) * k +
           static_cast<std::size_t>(labels[pos])] +=
          weights.empty() ? 1.0 : weights[pos];
    }
  };
  const std::size_t n_features = binned.n_features();
  ThreadPool* pool =
      count >= kMinRowsForParallelBuild && n_features >= 2 ? par.pool : nullptr;
  sharded_for(pool, par.n_threads, n_features,
              [&](std::size_t begin, std::size_t end) {
                for (std::size_t f = begin; f < end; ++f) fill_feature(f);
              });
}

namespace {

// Shared body of the packed class build/remove: identical except for the
// zeroing (build only) and the accumulation sign.
void run_class_kernel_packed(const PackedBins& packed,
                             const std::vector<std::size_t>& offsets,
                             int n_classes, const std::uint32_t* rows,
                             std::size_t count, const std::vector<int>& labels,
                             const std::vector<double>& weights, bool negate,
                             std::vector<double>& hist, HistKernel kernel,
                             const HistParallel& par) {
  const histdetail::KernelFns* fns = fns_for(kernel);
  FLAML_REQUIRE(fns != nullptr, "'" << hist_kernel_name(kernel)
                                    << "' is not a packed histogram kernel");
  if (count == 0) return;
  histdetail::ClassCall call;
  call.offsets = offsets.data();
  call.k = static_cast<std::size_t>(n_classes);
  call.rows = rows;
  call.count = count;
  call.labels = labels.data();
  call.weights = weights.empty() ? nullptr : weights.data();
  call.negate = negate;
  call.iota = rows_are_iota(rows, count);
  call.hist = hist.data();
  const std::size_t n_features = packed.n_features();
  ThreadPool* pool =
      count >= kMinRowsForParallelBuild && n_features >= 2 ? par.pool : nullptr;
  sharded_for(pool, par.n_threads, n_features,
              [&](std::size_t begin, std::size_t end) {
                histdetail::ClassCall c = call;
                c.f_begin = begin;
                c.f_end = end;
                if (packed.wide()) {
                  fns->cls_u16(packed.codes16(), n_features, c);
                } else {
                  fns->cls_u8(packed.codes8(), n_features, c);
                }
              });
}

}  // namespace

void build_class_histogram_packed(const PackedBins& packed,
                                  const std::vector<std::size_t>& offsets,
                                  int n_classes, const std::uint32_t* rows,
                                  std::size_t count,
                                  const std::vector<int>& labels,
                                  const std::vector<double>& weights,
                                  std::vector<double>& hist, HistKernel kernel,
                                  const HistParallel& par) {
  hist.assign(offsets.back() * static_cast<std::size_t>(n_classes), 0.0);
  run_class_kernel_packed(packed, offsets, n_classes, rows, count, labels,
                          weights, /*negate=*/false, hist, kernel, par);
}

void remove_rows_from_class_histogram_packed(
    const PackedBins& packed, const std::vector<std::size_t>& offsets,
    int n_classes, const std::uint32_t* rows, std::size_t count,
    const std::vector<int>& labels, const std::vector<double>& weights,
    std::vector<double>& hist, HistKernel kernel, const HistParallel& par) {
  run_class_kernel_packed(packed, offsets, n_classes, rows, count, labels,
                          weights, /*negate=*/true, hist, kernel, par);
}

void remove_rows_from_class_histogram(const BinnedMatrix& binned,
                                      const std::vector<std::size_t>& offsets,
                                      int n_classes, const std::uint32_t* rows,
                                      std::size_t count,
                                      const std::vector<int>& labels,
                                      const std::vector<double>& weights,
                                      std::vector<double>& hist,
                                      const HistParallel& par) {
  const std::size_t k = static_cast<std::size_t>(n_classes);
  auto drain_feature = [&](std::size_t f) {
    const auto& col = binned.feature(f);
    double* base = hist.data() + offsets[f] * k;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t pos = rows[i];
      base[static_cast<std::size_t>(col[pos]) * k +
           static_cast<std::size_t>(labels[pos])] -=
          weights.empty() ? 1.0 : weights[pos];
    }
  };
  const std::size_t n_features = binned.n_features();
  ThreadPool* pool =
      count >= kMinRowsForParallelBuild && n_features >= 2 ? par.pool : nullptr;
  sharded_for(pool, par.n_threads, n_features,
              [&](std::size_t begin, std::size_t end) {
                for (std::size_t f = begin; f < end; ++f) drain_feature(f);
              });
}

void fill_feature_class_counts(const std::vector<std::uint16_t>& col,
                               int n_bins, int n_classes,
                               const std::uint32_t* rows, std::size_t count,
                               const std::vector<int>& labels,
                               const std::vector<double>& weights,
                               std::vector<double>& out) {
  const std::size_t k = static_cast<std::size_t>(n_classes);
  const std::size_t cells = static_cast<std::size_t>(n_bins) * k;
  if (out.size() < cells) out.resize(cells);
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(cells), 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t pos = rows[i];
    out[static_cast<std::size_t>(col[pos]) * k +
        static_cast<std::size_t>(labels[pos])] +=
        weights.empty() ? 1.0 : weights[pos];
  }
}

void fill_feature_class_counts_packed(const PackedBins& packed, int feature,
                                      int n_bins, int n_classes,
                                      const std::uint32_t* rows,
                                      std::size_t count,
                                      const std::vector<int>& labels,
                                      const std::vector<double>& weights,
                                      std::vector<double>& out,
                                      HistKernel kernel) {
  const histdetail::KernelFns* fns = fns_for(kernel);
  FLAML_REQUIRE(fns != nullptr, "'" << hist_kernel_name(kernel)
                                    << "' is not a packed histogram kernel");
  const std::size_t k = static_cast<std::size_t>(n_classes);
  const std::size_t cells = static_cast<std::size_t>(n_bins) * k;
  if (out.size() < cells) out.resize(cells);
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(cells), 0.0);
  histdetail::FillCall call;
  call.feature = static_cast<std::size_t>(feature);
  call.k = k;
  call.rows = rows;
  call.count = count;
  call.labels = labels.data();
  call.weights = weights.empty() ? nullptr : weights.data();
  call.out = out.data();
  if (packed.wide()) {
    fns->fill_u16(packed.codes16(), packed.n_features(), call);
  } else {
    fns->fill_u8(packed.codes8(), packed.n_features(), call);
  }
}

}  // namespace flaml
