// Microbenchmark for the cross-trial binned-substrate cache
// (src/automl/substrate_cache.h). Replays a FLOW2-like trial workload —
// (learner, config, sample_size) combos revisited many times, the pattern
// the search loop produces at every sample-size rung — in holdout and CV
// mode, with 1 and 4 concurrent trial workers, twice: warm (every trial
// goes through one TrialRunner, so later trials reuse its cached
// substrates) and cold (every trial gets a fresh TrialRunner and re-bins
// its rows). Writes machine-readable timings to BENCH_substrate_cache.json
// (per-section warm/cold best-of-repeats seconds, speedup, and the warm
// cache's hit/miss/bytes counters). Also re-asserts the determinism
// contract on the benchmark inputs: per-trial validation errors must be
// bit-identical warm vs cold and for any worker count, and the result
// records whether that held.
//
// Usage:
//   bench_substrate_cache [--rows=N] [--features=N] [--trials=N]
//                         [--repeats=N] [--out=BENCH_substrate_cache.json]
//                         [--check]
// --check re-reads the emitted file through the JSON parser, validates its
// shape and requires the determinism report to be clean (non-zero exit
// otherwise) — that is what the ctest smoke test runs.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "automl/trial_runner.h"
#include "common/clock.h"
#include "common/json.h"
#include "data/generators.h"
#include "learners/registry.h"

namespace flaml::bench {
namespace {

constexpr int kWorkerCounts[] = {1, 4};

// One trial shape the workload cycles through. The salt makes the trial's
// training seed a pure function of the combo, so every (warm/cold, workers)
// variant runs EXACTLY the same trials and their errors are comparable bit
// for bit.
struct Combo {
  LearnerPtr learner;
  Config config;
  std::size_t sample_size;
  std::uint64_t salt;
};

std::vector<Combo> make_combos(const Dataset& data, std::size_t max_sample) {
  std::vector<Combo> combos;
  std::uint64_t salt = 1;
  for (const char* name : {"lgbm", "rf"}) {
    LearnerPtr learner = builtin_learner(name);
    Config config = learner->space(data.task(), max_sample).initial_config();
    for (std::size_t s : {max_sample / 4, max_sample / 2, max_sample}) {
      combos.push_back(Combo{learner, config, s, salt++});
    }
  }
  return combos;
}

struct Outcome {
  std::vector<double> errors;  // per trial index, worker-order independent
  SubstrateCache::Counters counters;  // the shared runner's; zeros when cold
};

TrialRunner::Options runner_options(Resampling mode) {
  TrialRunner::Options options;
  options.resampling = mode;
  options.seed = 42;
  return options;
}

// Push `n_trials` trials from `n_workers` threads — the shape of a
// parallel search's trial loop. Warm trials share one runner (built cold
// here, so its cache starts empty); each cold trial builds its own runner,
// which is what a trial with nothing to reuse costs.
Outcome run_workload(const Dataset& data, Resampling mode, bool warm,
                     int n_workers, int n_trials,
                     const std::vector<Combo>& combos) {
  const ErrorMetric metric = ErrorMetric::default_for(data.task());
  TrialRunner shared(data, metric, runner_options(mode));

  Outcome outcome;
  outcome.errors.assign(static_cast<std::size_t>(n_trials), 0.0);
  auto work = [&](int worker) {
    for (int i = worker; i < n_trials; i += n_workers) {
      const Combo& combo = combos[static_cast<std::size_t>(i) % combos.size()];
      std::optional<TrialRunner> fresh;
      TrialRunner& runner =
          warm ? shared : fresh.emplace(data, metric, runner_options(mode));
      const TrialResult result = runner.run(*combo.learner, combo.config,
                                            combo.sample_size, 0.0, combo.salt);
      outcome.errors[static_cast<std::size_t>(i)] = result.error;
    }
  };
  if (n_workers <= 1) {
    work(0);
  } else {
    std::vector<std::thread> workers;
    for (int w = 0; w < n_workers; ++w) workers.emplace_back(work, w);
    for (auto& worker : workers) worker.join();
  }
  outcome.counters = shared.substrate_cache()->counters();
  return outcome;
}

bool errors_identical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// Best-of-`repeats` wall seconds; keeps the outcome of the last repeat.
template <typename Fn>
double best_seconds(int repeats, Outcome& outcome, Fn&& fn) {
  WallClock clock;
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch timer(clock);
    outcome = fn();
    const double elapsed = timer.elapsed();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

// Validate the shape --check depends on; throws on any mismatch.
void check_result_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot reopen " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = parse_json(buffer.str());
  if (!root.is_object()) throw std::runtime_error("root is not an object");
  for (const char* key : {"rows", "features", "trials", "hardware_concurrency"}) {
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
  for (const JsonValue& section : sections->array) {
    for (const char* key : {"seconds_warm", "seconds_cold", "speedup_warm"}) {
      const JsonValue* v = section.find(key);
      if (v == nullptr || !v->is_number() || v->number < 0.0) {
        throw std::runtime_error(std::string("malformed section field '") + key +
                                 "'");
      }
    }
    const JsonValue* counters = section.find("cache_counters");
    if (counters == nullptr || counters->find("hits") == nullptr ||
        counters->find("misses") == nullptr ||
        counters->find("bytes") == nullptr) {
      throw std::runtime_error("section lacks cache counters");
    }
    if (counters->find("hits")->number <= 0.0) {
      throw std::runtime_error("warm section recorded no cache hits");
    }
  }
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  const int n_rows = args.get_int("rows", 4000);
  const int n_features = args.get_int("features", 16);
  const int n_trials = args.get_int("trials", 48);
  const int repeats = args.get_int("repeats", 3);
  const std::string out_path = args.get_string("out", "BENCH_substrate_cache.json");

  std::cerr << "bench_substrate_cache: rows=" << n_rows
            << " features=" << n_features << " trials=" << n_trials
            << " repeats=" << repeats << "\n";

  SyntheticSpec spec;
  spec.task = Task::BinaryClassification;
  spec.n_rows = static_cast<std::size_t>(n_rows);
  spec.n_features = n_features;
  spec.categorical_fraction = 0.25;
  spec.missing_fraction = 0.05;
  spec.seed = 0xcac4eULL;
  const Dataset data = make_classification(spec);

  JsonValue root = JsonValue::make_object();
  root.set("benchmark", JsonValue::make_string("substrate_cache"));
  root.set("rows", JsonValue::make_number(n_rows));
  root.set("features", JsonValue::make_number(n_features));
  root.set("trials", JsonValue::make_number(n_trials));
  root.set("repeats", JsonValue::make_number(repeats));
  root.set("hardware_concurrency",
           JsonValue::make_number(std::thread::hardware_concurrency()));

  JsonValue determinism = JsonValue::make_object();
  bool all_identical = true;

  JsonValue sections = JsonValue::make_array();
  for (Resampling mode : {Resampling::Holdout, Resampling::CV}) {
    // The sample-size schedule works off the runner's train view, which is
    // smaller than the dataset in holdout mode; a quick probe gets the size.
    std::size_t max_sample;
    {
      TrialRunner runner(data, ErrorMetric::default_for(data.task()),
                         runner_options(mode));
      max_sample = runner.max_sample_size();
    }
    const std::vector<Combo> combos = make_combos(data, max_sample);

    std::vector<double> reference_errors;  // workers=1, warm
    for (int n_workers : kWorkerCounts) {
      Outcome warm, cold;
      const double seconds_warm = best_seconds(repeats, warm, [&] {
        return run_workload(data, mode, true, n_workers, n_trials, combos);
      });
      const double seconds_cold = best_seconds(repeats, cold, [&] {
        return run_workload(data, mode, false, n_workers, n_trials, combos);
      });
      const double speedup =
          seconds_warm > 0.0 ? seconds_cold / seconds_warm : 0.0;

      const std::string label = std::string(resampling_name(mode)) +
                                " workers=" + std::to_string(n_workers);
      const bool warm_cold_identical =
          errors_identical(warm.errors, cold.errors);
      if (reference_errors.empty()) reference_errors = warm.errors;
      const bool workers_identical =
          errors_identical(warm.errors, reference_errors);
      all_identical = all_identical && warm_cold_identical && workers_identical;
      if (!warm_cold_identical) {
        std::cerr << "DETERMINISM VIOLATION: " << label
                  << " warm errors differ from cold\n";
      }
      if (!workers_identical) {
        std::cerr << "DETERMINISM VIOLATION: " << label
                  << " errors depend on worker count\n";
      }

      JsonValue section = JsonValue::make_object();
      section.set("mode", JsonValue::make_string(resampling_name(mode)));
      section.set("workers", JsonValue::make_number(n_workers));
      section.set("seconds_warm", JsonValue::make_number(seconds_warm));
      section.set("seconds_cold", JsonValue::make_number(seconds_cold));
      section.set("speedup_warm", JsonValue::make_number(speedup));
      section.set("errors_identical",
                  JsonValue::make_bool(warm_cold_identical &&
                                       workers_identical));
      JsonValue counters = JsonValue::make_object();
      counters.set("hits", JsonValue::make_number(
                               static_cast<double>(warm.counters.hits)));
      counters.set("misses", JsonValue::make_number(
                                 static_cast<double>(warm.counters.misses)));
      counters.set("bytes", JsonValue::make_number(
                                static_cast<double>(warm.counters.bytes)));
      section.set("cache_counters", std::move(counters));
      sections.push(std::move(section));

      std::cerr << "  " << label << ": warm " << seconds_warm << " s, cold "
                << seconds_cold << " s, speedup " << speedup << "x (hits "
                << warm.counters.hits << ", misses " << warm.counters.misses
                << ")\n";
    }
  }
  root.set("sections", std::move(sections));
  determinism.set("all_identical", JsonValue::make_bool(all_identical));
  root.set("determinism", std::move(determinism));

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
    if (!all_identical) {
      std::cerr << "check failed: warm trials diverged from cold ones\n";
      return 1;
    }
    std::cerr << "check passed\n";
  }
  return 0;
}

}  // namespace
}  // namespace flaml::bench

int main(int argc, char** argv) {
  try {
    return flaml::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_substrate_cache: " << e.what() << "\n";
    return 1;
  }
}
