// Microbenchmark for deterministic intra-trial parallelism. Times the
// feature-parallel packed histogram build (the growers' kernel), leaf-wise
// and classification tree growth, forest training and row-sharded
// prediction at n_threads {1, 2, 4, 8} and writes machine-readable results
// to BENCH_tree.json (sections with per-thread-count best-of-repeats
// seconds and speedup_vs_serial). Also re-asserts the determinism
// contract on the benchmark inputs: every parallel model must serialize
// byte-identically to its serial reference, and the result records
// whether that held.
//
// Also sweeps the histogram KERNELS (scalar reference vs every available
// packed kernel, single thread) into a "kernels" section: rows/sec on the
// gradient build (full row set and a gathered half subset) plus the class
// build, with every packed result verified bit-identical to scalar.
//
// Usage:
//   bench_tree_parallel [--rows=N] [--features=N] [--repeats=N]
//                       [--out=BENCH_tree.json] [--check] [--min-speedup=X]
// --check re-reads the emitted file through the JSON parser and validates
// its shape, which is what the ctest smoke test runs. --min-speedup fails
// the run unless the best packed kernel beats the scalar gradient build by
// at least X on one thread (the acceptance floor enforced in release CI).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "boosting/gbdt.h"
#include "common/clock.h"
#include "common/rng.h"
#include "data/generators.h"
#include "forest/forest.h"
#include "common/json.h"
#include "tree/class_grower.h"
#include "tree/grower.h"
#include "tree/histogram.h"
#include "tree/tree_io.h"

namespace flaml::bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct BenchData {
  Dataset regression;
  Dataset classification;
  BinMapper mapper;
  BinnedMatrix binned;  // scalar-reference input of the kernel sweep
  PackedBins packed;
  BinMapper class_mapper;
  BinnedMatrix class_binned;
  PackedBins class_packed;
  std::vector<std::uint32_t> rows;
  std::vector<double> grad, hess;
  std::vector<int> features;
  std::vector<int> labels;
};

BenchData make_bench_data(int n_rows, int n_features) {
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = static_cast<std::size_t>(n_rows);
  spec.n_features = n_features;
  spec.categorical_fraction = 0.2;
  spec.missing_fraction = 0.05;
  spec.nonlinearity = 0.5;
  spec.seed = 0xbe7cULL;
  Dataset regression = make_regression(spec);

  spec.task = Task::MultiClassification;
  spec.n_classes = 3;
  spec.seed = 0xbe7dULL;
  Dataset classification = make_classification(spec);

  BinMapper mapper = BinMapper::fit(DataView(regression), 255);
  BinnedMatrix binned = mapper.encode(DataView(regression));
  PackedBins packed = mapper.encode_packed(DataView(regression));
  BinMapper class_mapper = BinMapper::fit(DataView(classification), 255);
  BinnedMatrix class_binned = class_mapper.encode(DataView(classification));
  PackedBins class_packed = class_mapper.encode_packed(DataView(classification));

  const std::size_t n = regression.n_rows();
  BenchData data{std::move(regression),   std::move(classification),
                 std::move(mapper),       std::move(binned),
                 std::move(packed),       std::move(class_mapper),
                 std::move(class_binned), std::move(class_packed),
                 {},                      {},
                 {},                      {},
                 {}};
  data.rows.resize(n);
  std::iota(data.rows.begin(), data.rows.end(), 0u);
  data.grad.resize(n);
  data.hess.assign(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) data.grad[i] = -data.regression.label(i);
  data.features.resize(data.regression.n_cols());
  std::iota(data.features.begin(), data.features.end(), 0);
  data.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.labels[i] = static_cast<int>(data.classification.label(i));
  }
  return data;
}

// Best-of-`repeats` wall seconds for one invocation of `fn`.
template <typename Fn>
double best_seconds(int repeats, Fn&& fn) {
  WallClock clock;
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch timer(clock);
    fn();
    const double elapsed = timer.elapsed();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

// One section: run `fn(n_threads)` at every thread count, record seconds
// and speedup vs the n_threads=1 entry.
template <typename Fn>
JsonValue bench_section(const std::string& name, int repeats, Fn&& fn) {
  JsonValue section = JsonValue::make_object();
  section.set("name", JsonValue::make_string(name));
  JsonValue entries = JsonValue::make_array();
  double serial_seconds = 0.0;
  for (int n_threads : kThreadCounts) {
    const double seconds = best_seconds(repeats, [&] { fn(n_threads); });
    if (n_threads == 1) serial_seconds = seconds;
    JsonValue entry = JsonValue::make_object();
    entry.set("n_threads", JsonValue::make_number(n_threads));
    entry.set("seconds", JsonValue::make_number(seconds));
    entry.set("speedup_vs_serial",
              JsonValue::make_number(seconds > 0.0 ? serial_seconds / seconds : 0.0));
    entries.push(std::move(entry));
    std::cerr << "  " << name << " n_threads=" << n_threads << ": " << seconds
              << " s\n";
  }
  section.set("entries", std::move(entries));
  return section;
}

// Bitwise histogram equality (field-wise: HistEntry has tail padding, so a
// whole-struct memcmp would read indeterminate bytes).
bool hist_bits_equal(const std::vector<HistEntry>& a,
                     const std::vector<HistEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].g, &b[i].g, sizeof(double)) != 0 ||
        std::memcmp(&a[i].h, &b[i].h, sizeof(double)) != 0 || a[i].n != b[i].n) {
      return false;
    }
  }
  return true;
}

// Single-thread kernel sweep: scalar reference vs every available packed
// kernel on the SAME inputs. Each timing loops the build until the row
// volume is large enough to dwarf clock noise (the smoke test runs tiny
// datasets), and every packed histogram is compared bit-for-bit against the
// scalar one before its timing is trusted.
JsonValue kernel_sweep(const BenchData& data, int repeats, double& best_speedup,
                       bool& all_identical) {
  const std::vector<std::size_t> offsets = histogram_offsets(data.mapper);
  const std::vector<std::size_t> class_offsets =
      histogram_offsets(data.class_mapper);
  const PackedBins& packed = data.packed;
  const PackedBins& class_packed = data.class_packed;
  const bool unit_hess = std::all_of(data.hess.begin(), data.hess.end(),
                                     [](double v) { return v == 1.0; });
  // Gathered half subset (every other row): the non-root shape, where rows
  // no longer equal [0, n) and the kernels take the indirect-load path.
  std::vector<std::uint32_t> subset;
  subset.reserve(data.rows.size() / 2);
  for (std::size_t i = 0; i < data.rows.size(); i += 2) subset.push_back(data.rows[i]);
  // Loop each measured build so one measurement covers >= ~2M row-visits.
  const int iters = std::max<int>(
      1, static_cast<int>(2'000'000 / std::max<std::size_t>(1, data.rows.size())));

  std::vector<HistEntry> scalar_full, scalar_subset, hist;
  std::vector<double> scalar_class, class_hist;
  build_gradient_histogram(data.binned, offsets, data.features, data.rows.data(),
                           data.rows.size(), data.grad, data.hess, scalar_full);
  build_gradient_histogram(data.binned, offsets, data.features, subset.data(),
                           subset.size(), data.grad, data.hess, scalar_subset);
  build_class_histogram(data.class_binned, class_offsets, 3, data.rows.data(),
                        data.rows.size(), data.labels, {}, scalar_class);

  JsonValue section = JsonValue::make_object();
  section.set("active", JsonValue::make_string(hist_kernel_name(active_hist_kernel())));
  section.set("packed_width",
              JsonValue::make_string(packed.wide() ? "u16" : "u8"));
  section.set("unit_hess", JsonValue::make_bool(unit_hess));
  JsonValue entries = JsonValue::make_array();

  double scalar_full_seconds = 0.0;
  best_speedup = 0.0;
  all_identical = true;
  const HistKernel kernels[] = {HistKernel::Scalar, HistKernel::Portable,
                                HistKernel::Sse2};
  for (HistKernel kernel : kernels) {
    if (!hist_kernel_available(kernel)) continue;
    const bool scalar = kernel == HistKernel::Scalar;

    auto grad_build = [&](const std::uint32_t* rows, std::size_t count,
                          std::vector<HistEntry>& out) {
      if (scalar) {
        build_gradient_histogram(data.binned, offsets, data.features, rows,
                                 count, data.grad, data.hess, out);
      } else {
        build_gradient_histogram_packed(packed, offsets, data.features, rows,
                                        count, data.grad, data.hess, unit_hess,
                                        out, kernel);
      }
    };
    auto class_build = [&] {
      if (scalar) {
        build_class_histogram(data.class_binned, class_offsets, 3,
                              data.rows.data(), data.rows.size(), data.labels,
                              {}, class_hist);
      } else {
        build_class_histogram_packed(class_packed, class_offsets, 3,
                                     data.rows.data(), data.rows.size(),
                                     data.labels, {}, class_hist, kernel);
      }
    };

    // Bit-identity gate before timing.
    bool identical = true;
    if (!scalar) {
      grad_build(data.rows.data(), data.rows.size(), hist);
      identical = identical && hist_bits_equal(hist, scalar_full);
      grad_build(subset.data(), subset.size(), hist);
      identical = identical && hist_bits_equal(hist, scalar_subset);
      class_build();
      identical = identical && class_hist == scalar_class;
      if (!identical) {
        std::cerr << "KERNEL DIVERGENCE: " << hist_kernel_name(kernel)
                  << " != scalar\n";
        all_identical = false;
      }
    }

    const double full_seconds =
        best_seconds(repeats, [&] {
          for (int it = 0; it < iters; ++it) {
            grad_build(data.rows.data(), data.rows.size(), hist);
          }
        }) /
        iters;
    const double subset_seconds =
        best_seconds(repeats, [&] {
          for (int it = 0; it < iters * 2; ++it) {
            grad_build(subset.data(), subset.size(), hist);
          }
        }) /
        (iters * 2);
    const double class_seconds =
        best_seconds(repeats, [&] {
          for (int it = 0; it < iters; ++it) class_build();
        }) /
        iters;
    if (scalar) scalar_full_seconds = full_seconds;
    const double speedup =
        full_seconds > 0.0 ? scalar_full_seconds / full_seconds : 0.0;
    if (!scalar) best_speedup = std::max(best_speedup, speedup);

    JsonValue entry = JsonValue::make_object();
    entry.set("kernel", JsonValue::make_string(hist_kernel_name(kernel)));
    entry.set("grad_full_seconds", JsonValue::make_number(full_seconds));
    entry.set("grad_full_rows_per_sec",
              JsonValue::make_number(full_seconds > 0.0
                                         ? static_cast<double>(data.rows.size()) /
                                               full_seconds
                                         : 0.0));
    entry.set("grad_subset_seconds", JsonValue::make_number(subset_seconds));
    entry.set("class_full_seconds", JsonValue::make_number(class_seconds));
    entry.set("speedup_vs_scalar", JsonValue::make_number(speedup));
    entry.set("identical_to_scalar", JsonValue::make_bool(identical));
    entries.push(std::move(entry));
    std::cerr << "  kernel " << hist_kernel_name(kernel) << ": full "
              << full_seconds << " s (x" << speedup << "), subset "
              << subset_seconds << " s, class " << class_seconds << " s\n";
  }
  section.set("entries", std::move(entries));
  section.set("best_speedup_vs_scalar", JsonValue::make_number(best_speedup));
  section.set("all_identical_to_scalar", JsonValue::make_bool(all_identical));
  return section;
}

std::string tree_string(const Tree& tree) {
  std::ostringstream os;
  os.precision(17);
  write_tree(os, tree);
  return os.str();
}

Tree grow_leafwise(const BenchData& data, int n_threads) {
  GrowerParams params;
  params.max_leaves = 63;
  params.n_threads = n_threads;
  GradientTreeGrower grower(data.mapper, data.packed);
  Rng rng(0x51ULL);
  return grower.grow(data.rows, data.grad, data.hess, data.features, params, rng);
}

Tree grow_class(const BenchData& data, int n_threads) {
  ClassGrowerParams params;
  params.max_leaves = 63;
  params.n_threads = n_threads;
  ClassTreeGrower grower(data.class_mapper, data.class_packed, 3);
  Rng rng(0x52ULL);
  return grower.grow(data.rows, data.labels, {}, params, rng);
}

std::string forest_string(const BenchData& data, int n_threads) {
  ForestParams params;
  params.n_trees = 16;
  params.seed = 0x53ULL;
  params.n_threads = n_threads;
  std::ostringstream os;
  train_forest(DataView(data.regression), params).save(os);
  return os.str();
}

// Serial-vs-parallel byte equality on the benchmark inputs; records one
// named boolean per modelling path.
JsonValue determinism_report(const BenchData& data) {
  JsonValue report = JsonValue::make_object();
  bool all_ok = true;
  auto record = [&](const std::string& name, bool ok) {
    report.set(name, JsonValue::make_bool(ok));
    all_ok = all_ok && ok;
    if (!ok) std::cerr << "DETERMINISM VIOLATION: " << name << "\n";
  };

  const std::string leaf_serial = tree_string(grow_leafwise(data, 1));
  const std::string class_serial = tree_string(grow_class(data, 1));
  const std::string forest_serial = forest_string(data, 1);
  bool leaf_ok = true, class_ok = true, forest_ok = true;
  for (int n_threads : {2, 4, 8}) {
    leaf_ok = leaf_ok && tree_string(grow_leafwise(data, n_threads)) == leaf_serial;
    class_ok = class_ok && tree_string(grow_class(data, n_threads)) == class_serial;
    forest_ok = forest_ok && forest_string(data, n_threads) == forest_serial;
  }
  record("leafwise_tree_identical", leaf_ok);
  record("class_tree_identical", class_ok);
  record("forest_identical", forest_ok);
  report.set("all_identical", JsonValue::make_bool(all_ok));
  return report;
}

// Validate the shape --check depends on; throws on any mismatch.
void check_result_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot reopen " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = parse_json(buffer.str());
  if (!root.is_object()) throw std::runtime_error("root is not an object");
  for (const char* key : {"rows", "features", "hardware_concurrency"}) {
    const JsonValue* v = root.find(key);
    if (v == nullptr || !v->is_number()) {
      throw std::runtime_error(std::string("missing numeric field '") + key + "'");
    }
  }
  const JsonValue* determinism = root.find("determinism");
  if (determinism == nullptr || determinism->find("all_identical") == nullptr) {
    throw std::runtime_error("missing determinism report");
  }
  const JsonValue* sections = root.find("sections");
  if (sections == nullptr || !sections->is_array() || sections->array.empty()) {
    throw std::runtime_error("missing sections array");
  }
  const JsonValue* kernels = root.find("kernels");
  if (kernels == nullptr || kernels->find("best_speedup_vs_scalar") == nullptr ||
      kernels->find("all_identical_to_scalar") == nullptr) {
    throw std::runtime_error("missing kernels sweep");
  }
  const JsonValue* kernel_entries = kernels->find("entries");
  if (kernel_entries == nullptr || !kernel_entries->is_array() ||
      kernel_entries->array.size() < 2) {
    throw std::runtime_error(
        "kernels sweep needs the scalar reference plus >= 1 packed kernel");
  }
  for (const JsonValue& entry : kernel_entries->array) {
    for (const char* key :
         {"grad_full_seconds", "grad_full_rows_per_sec", "grad_subset_seconds",
          "class_full_seconds", "speedup_vs_scalar"}) {
      const JsonValue* v = entry.find(key);
      if (v == nullptr || !v->is_number() || v->number < 0.0) {
        throw std::runtime_error(std::string("malformed kernel entry field '") +
                                 key + "'");
      }
    }
  }
  for (const JsonValue& section : sections->array) {
    const JsonValue* entries = section.find("entries");
    if (entries == nullptr || entries->array.size() != std::size(kThreadCounts)) {
      throw std::runtime_error("section without a full thread-count sweep");
    }
    bool has_serial = false, has_parallel = false;
    for (const JsonValue& entry : entries->array) {
      const JsonValue* n = entry.find("n_threads");
      const JsonValue* seconds = entry.find("seconds");
      if (n == nullptr || seconds == nullptr || !seconds->is_number() ||
          seconds->number < 0.0) {
        throw std::runtime_error("malformed timing entry");
      }
      if (n->number == 1.0) has_serial = true;
      if (n->number > 1.0) has_parallel = true;
    }
    if (!has_serial || !has_parallel) {
      throw std::runtime_error("section lacks serial or parallel timings");
    }
  }
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  const int n_rows = args.get_int("rows", 20000);
  const int n_features = args.get_int("features", 20);
  const int repeats = args.get_int("repeats", 3);
  const std::string out_path = args.get_string("out", "BENCH_tree.json");

  std::cerr << "bench_tree_parallel: rows=" << n_rows << " features=" << n_features
            << " repeats=" << repeats << "\n";
  BenchData data = make_bench_data(n_rows, n_features);

  JsonValue root = JsonValue::make_object();
  root.set("benchmark", JsonValue::make_string("tree_parallel"));
  root.set("rows", JsonValue::make_number(n_rows));
  root.set("features", JsonValue::make_number(n_features));
  root.set("repeats", JsonValue::make_number(repeats));
  root.set("hardware_concurrency",
           JsonValue::make_number(std::thread::hardware_concurrency()));

  JsonValue sections = JsonValue::make_array();
  // The production build: the packed layout through the growers' kernel.
  // The scalar build is only the kernel sweep's reference.
  const std::vector<std::size_t> offsets = histogram_offsets(data.mapper);
  const bool unit_hess = std::all_of(data.hess.begin(), data.hess.end(),
                                     [](double v) { return v == 1.0; });
  sections.push(bench_section("hist_build", repeats, [&](int n_threads) {
    HistParallel par{n_threads > 1 ? &shared_pool() : nullptr, n_threads};
    std::vector<HistEntry> hist;
    build_gradient_histogram_packed(data.packed, offsets, data.features,
                                    data.rows.data(), data.rows.size(),
                                    data.grad, data.hess, unit_hess, hist,
                                    active_hist_kernel(), par);
  }));
  sections.push(bench_section("grow_leafwise", repeats, [&](int n_threads) {
    grow_leafwise(data, n_threads);
  }));
  sections.push(bench_section("class_grow", repeats, [&](int n_threads) {
    grow_class(data, n_threads);
  }));
  sections.push(bench_section("forest_train", repeats, [&](int n_threads) {
    forest_string(data, n_threads);
  }));
  {
    ForestParams params;
    params.n_trees = 16;
    params.seed = 0x53ULL;
    ForestModel model = train_forest(DataView(data.regression), params);
    DataView view(data.regression);
    sections.push(bench_section("predict", repeats, [&](int n_threads) {
      model.predict(view, n_threads);
    }));
  }
  root.set("sections", std::move(sections));

  std::cerr << "kernel sweep (single thread):\n";
  double best_kernel_speedup = 0.0;
  bool kernels_identical = true;
  root.set("kernels",
           kernel_sweep(data, repeats, best_kernel_speedup, kernels_identical));
  root.set("determinism", determinism_report(data));

  const std::string serialized = dump_json(root);
  {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    out << serialized;
  }
  std::cerr << "wrote " << out_path << "\n";

  if (args.has("check")) {
    check_result_file(out_path);
    const JsonValue* determinism = parse_json(serialized).find("determinism");
    const JsonValue* all_ok =
        determinism != nullptr ? determinism->find("all_identical") : nullptr;
    if (all_ok == nullptr || !all_ok->boolean) {
      std::cerr << "check failed: parallel models diverged from serial\n";
      return 1;
    }
    if (!kernels_identical) {
      std::cerr << "check failed: a packed kernel diverged from scalar\n";
      return 1;
    }
    std::cerr << "check passed\n";
  }
  const double min_speedup = args.get_double("min-speedup", 0.0);
  if (min_speedup > 0.0 && best_kernel_speedup < min_speedup) {
    std::cerr << "min-speedup failed: best packed kernel is x"
              << best_kernel_speedup << " vs scalar, needed x" << min_speedup
              << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace flaml::bench

int main(int argc, char** argv) {
  try {
    return flaml::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_tree_parallel: " << e.what() << "\n";
    return 1;
  }
}
