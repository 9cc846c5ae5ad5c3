// The search half: CSV parsed -> AutoML::fit -> save_best_model ->
// compile_blob -> CompiledModel::save_file, the public path flaml_train and
// flaml_predict_serve compile take. It runs in a child process so that
// wait4() reports the search's own peak RSS.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>

#include "data/csv.h"
#include "data/suite.h"
#include "e2e.h"
#include "learners/registry.h"
#include "serve/compiled_model.h"
#include "tree/histogram.h"

namespace e2e {

using namespace flaml;

namespace {

// The golden searches' deterministic cost model
// (tests/test_golden_search.cpp): with it, and a fixed max_iterations under
// an unreachable time budget, the trial sequence is a pure function of the
// data and options, so search_s times the same trials on every run.
// Measured wall-clock costs would make the sequence depend on timing.
double golden_cost(const Learner& learner, const Config& config,
                   std::size_t sample_size) {
  double config_sum = 0.0;
  for (const auto& [name, value] : config) config_sum += std::abs(value);
  return learner.initial_cost_multiplier() *
             (0.05 + 0.001 * static_cast<double>(sample_size)) +
         1e-6 * config_sum;
}

AutoMLOptions search_options(const Workload& workload, bool smoke) {
  AutoMLOptions options;
  options.time_budget_seconds = 1e6;
  options.max_iterations =
      smoke ? workload.search.smoke_iterations : workload.search.max_iterations;
  options.trial_cost_model = golden_cost;
  options.resampling = workload.search.resampling;
  options.n_parallel = workload.search.n_parallel;
  options.n_threads = workload.search.n_threads;
  options.seed = 1;
  return options;
}

std::string double_hex(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

// FNV-1a over every record except the wall-clock finished_at: learner,
// config, sample size, error and cost bits (the golden-test digest).
std::string history_digest(const TrialHistory& history) {
  std::ostringstream os;
  for (const TrialRecord& r : history) {
    os << r.iteration << '|' << r.learner << '|';
    for (const auto& [name, value] : r.config) os << name << '=' << double_hex(value) << ',';
    os << '|' << r.sample_size << '|' << double_hex(r.error) << '|'
       << double_hex(r.cost) << '|' << double_hex(r.best_error_so_far) << '\n';
  }
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : os.str()) h = (h ^ c) * 0x100000001b3ULL;
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct SearchRun {
  double start = 0.0, fit_start = 0.0, fit_end = 0.0, compile_end = 0.0, end = 0.0;
  TrialHistory history;
  std::string digest;
  double test_error = 0.0;
  double time_to_target_s = 0.0;
  double artifact_bytes = 0.0;
  double trials_failed = 0.0;
  double substrate_hits = 0.0, substrate_misses = 0.0, substrate_bytes = 0.0;
  bool artifact_bits_ok = false;
  double search_s() const { return end - start; }
};

// One timed search, then the checks on its outputs.
SearchRun run_search(const Workload& workload, const Options& options,
                     const Dataset& data, const std::string& artifact,
                     const observe::TraceSinkPtr& sink) {
  AutoMLOptions automl_options = search_options(workload, options.smoke);
  automl_options.trace_sink = sink;
  std::vector<std::uint32_t> train_rows(options.n_train), test_rows;
  for (std::uint32_t i = 0; i < options.n_train; ++i) train_rows[i] = i;
  for (std::size_t i = options.n_train; i < data.n_rows(); ++i) {
    test_rows.push_back(static_cast<std::uint32_t>(i));
  }

  SearchRun run;
  run.start = now_s();
  const Dataset train = materialize(DataView(data, train_rows));
  AutoML automl;
  run.fit_start = now_s();
  automl.fit(train, automl_options);
  run.fit_end = now_s();
  std::ostringstream blob;
  automl.save_best_model(blob);
  const serve::CompiledModel compiled = serve::compile_blob(blob.str());
  run.compile_end = now_s();
  compiled.save_file(artifact);
  run.end = now_s();

  run.history = automl.history();
  run.digest = history_digest(run.history);
  const DataView test(data, test_rows);
  const Predictions predicted = automl.predict(test);
  run.test_error = ErrorMetric::default_for(data.task())(predicted, test.labels());
  const serve::CompiledModel reloaded = serve::CompiledModel::load_file(artifact);
  run.artifact_bits_ok =
      bits_equal(reloaded.predict_many(test, 1).values, predicted.values);
  run.artifact_bytes = static_cast<double>(std::filesystem::file_size(artifact));
  run.time_to_target_s = run.search_s();  // never reached: the whole search
  for (const TrialRecord& r : run.history) {
    if (r.best_error_so_far <= workload.search.target_error) {
      run.time_to_target_s = run.fit_start - run.start + r.finished_at;
      break;
    }
  }
  const observe::MetricsRegistry& m = automl.metrics();
  run.trials_failed = m.value("trials_failed") + m.value("trials_killed");
  run.substrate_hits = m.value("substrate_cache.hits");
  run.substrate_misses = m.value("substrate_cache.misses");
  run.substrate_bytes = m.value("substrate_cache.bytes");
  return run;
}

// Per-layer numbers from the traced search's own events: trial spans are
// [trial_started, + elapsed_seconds], matched per learner (a learner has
// at most one trial in flight, so its starts and finishes pair in order).
void trace_metrics(const SearchRun& run, const std::vector<observe::TraceEvent>& events,
                   Metrics& out, std::vector<Span>& spans) {
  std::map<std::string, std::deque<double>> started;
  std::map<std::string, std::pair<double, double>> per_learner;  // seconds, trials
  for (const LearnerPtr& l : builtin_learners()) per_learner[l->name()] = {0.0, 0.0};
  std::vector<std::pair<double, double>> intervals;
  double first_start = -1.0, last_finish = 0.0, summary = 0.0, busy = 0.0;
  for (const observe::TraceEvent& e : events) {
    if (e.type == "trial_started") {
      started[e.fields.at("learner").str].push_back(e.time);
      if (first_start < 0.0) first_start = e.time;
    } else if (e.type == "trial_finished") {
      const std::string learner = e.fields.at("learner").str;
      const double elapsed = e.fields.at("elapsed_seconds").number;
      if (started[learner].empty()) continue;
      const double begin = started[learner].front();
      started[learner].pop_front();
      intervals.push_back({begin, begin + elapsed});
      per_learner[learner].first += elapsed;
      per_learner[learner].second += 1.0;
      busy += elapsed;
      last_finish = e.time;
      spans.push_back({"trial", run.fit_start + begin, run.fit_start + begin + elapsed,
                       "fit", static_cast<std::uint64_t>(e.fields.at("iteration").number)});
    } else if (e.type == "run_summary") {
      summary = e.time;
    }
  }
  std::sort(intervals.begin(), intervals.end());
  double union_s = 0.0, covered_to = -1.0;
  for (const auto& [begin, end] : intervals) {
    const double from = std::max(begin, covered_to);
    if (end > from) union_s += end - from;
    covered_to = std::max(covered_to, end);
  }
  const double fit_s = run.fit_end - run.fit_start;
  const double retrain_s = summary - last_finish;
  spans.push_back({"retrain", run.fit_start + last_finish, run.fit_start + summary, "fit", 0});
  out.set("automl.fit_setup_s", first_start, "s");
  out.set("automl.trial_span_s", union_s, "s");
  out.set("automl.retrain_s", retrain_s, "s");
  out.set("automl.controller_self_s", fit_s - first_start - union_s - retrain_s, "s");
  out.set("automl.parallel_overlap", union_s > 0.0 ? busy / union_s : 0.0, "ratio");
  for (const auto& [learner, st] : per_learner) {
    out.set("learners.trial_s." + learner, st.first, "s");
    out.set("learners.trials." + learner, st.second, "count");
  }
}

template <typename F>
double median_call_s(F&& call, double min_total_s) {
  std::vector<double> times;
  const double until = now_s() + min_total_s;
  do {
    const double t0 = now_s();
    call();
    times.push_back(now_s() - t0);
  } while (now_s() < until || times.size() < 3);
  return median(times);
}

// Kernel probes on the workload's own full training rows, one thread, the
// active histogram kernel.
void tree_probes(const Dataset& data, std::size_t n_train, Metrics& out) {
  std::vector<std::uint32_t> rows(n_train);
  for (std::uint32_t i = 0; i < n_train; ++i) rows[i] = i;
  const DataView train(data, rows);
  BinnedSubstrate substrate;
  out.set("tree.substrate_build_s",
          median_call_s([&] { substrate = build_substrate(train, 255); }, 0.3), "s");

  const HistKernel kernel = active_hist_kernel();
  if (substrate.packed.empty()) substrate.packed = PackedBins::pack(substrate.binned);
  const std::vector<std::size_t> offsets = histogram_offsets(substrate.mapper);
  std::vector<int> features(data.n_cols());
  for (std::size_t f = 0; f < features.size(); ++f) features[f] = static_cast<int>(f);
  std::vector<std::uint32_t> positions(n_train);
  for (std::uint32_t i = 0; i < n_train; ++i) positions[i] = i;
  Rng rng(7);
  std::vector<double> grad(n_train), hess(n_train, 1.0);
  for (double& g : grad) g = rng.normal();
  const double cells = static_cast<double>(n_train) * static_cast<double>(features.size());

  std::vector<HistEntry> hist;
  const double grad_s = median_call_s(
      [&] {
        if (kernel == HistKernel::Scalar) {
          build_gradient_histogram(substrate.binned, offsets, features, positions.data(),
                                   n_train, grad, hess, hist);
        } else {
          build_gradient_histogram_packed(substrate.packed, offsets, features,
                                          positions.data(), n_train, grad, hess, true,
                                          hist, kernel);
        }
      },
      0.3);
  out.set("tree.hist_grad_ns_per_cell", grad_s * 1e9 / cells, "ns");

  // Class labels: the task's own, or above/below the median target.
  std::vector<int> labels(n_train);
  const double cut = is_classification(data.task()) ? 0.5 : median(train.labels());
  for (std::size_t i = 0; i < n_train; ++i) labels[i] = data.label(i) > cut ? 1 : 0;
  std::vector<double> class_hist;
  const double class_s = median_call_s(
      [&] {
        if (kernel == HistKernel::Scalar) {
          build_class_histogram(substrate.binned, offsets, 2, positions.data(), n_train,
                                labels, {}, class_hist);
        } else {
          build_class_histogram_packed(substrate.packed, offsets, 2, positions.data(),
                                       n_train, labels, {}, class_hist, kernel);
        }
      },
      0.3);
  out.set("tree.hist_class_ns_per_cell", class_s * 1e9 / cells, "ns");
}

}  // namespace

int run_search_child(const Options& options) {
  const Workload& workload = *find_workload(options.workload);
  const std::string fail = "FAIL " + options.workload + " ";
  HalfResult result;

  // Set-up: parse the CSV once to warm the page cache, then three timed
  // times. Every child samples it, so the samples of one run are spread
  // over the run instead of sharing one moment of the host's load.
  CsvOptions csv;
  csv.task = suite_entry(workload.search.suite).spec.task;
  csv.label_column = "label";
  const std::string csv_path = options.dir + "/search.csv";
  Dataset data = read_csv_file(csv_path, csv);
  std::vector<double> reads;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_s();
    data = read_csv_file(csv_path, csv);
    reads.push_back(now_s() - t0);
    result.spans.push_back({"csv_read", t0, t0 + reads.back(), "workload", 0});
  }
  result.metrics.set("data.csv_read_s", median(reads), "s");

  const std::string artifact =
      options.dir + "/search_model_" + std::to_string(options.repeat) + ".bin";
  auto sink = options.trace ? std::make_shared<observe::MemoryTraceSink>() : nullptr;
  const SearchRun run = run_search(workload, options, data, artifact, sink);
  Metrics& m = result.metrics;
  m.set("search_s", run.search_s(), "s");
  m.set("time_to_target_s", run.time_to_target_s, "s");
  m.set("test_error", run.test_error, "error");
  result.attempted = run.history.size();
  result.failed = static_cast<std::uint64_t>(run.trials_failed);
  result.digest = run.digest;
  if (!run.artifact_bits_ok) result.failures.push_back(fail + "artifact_bits");

  if (options.trace) {
    trace_metrics(run, sink->snapshot(), m, result.spans);
    m.set("automl.substrate_hits", run.substrate_hits, "count");
    m.set("automl.substrate_misses", run.substrate_misses, "count");
    const double lookups = run.substrate_hits + run.substrate_misses;
    m.set("automl.substrate_hit_ratio", lookups > 0.0 ? run.substrate_hits / lookups : 0.0,
          "ratio");
    m.set("automl.substrate_bytes", run.substrate_bytes, "bytes");
    m.set("automl.trials", static_cast<double>(run.history.size()), "count");
    m.set("automl.trials_failed", run.trials_failed, "count");
    m.set("serve.compile_s", run.compile_end - run.fit_end, "s");
    m.set("serve.artifact_save_s", run.end - run.compile_end, "s");
    m.set("serve.artifact_bytes", run.artifact_bytes, "bytes");
    result.spans.push_back({"search", run.start, run.end, "workload", 0});
    result.spans.push_back({"fit", run.fit_start, run.fit_end, "search", 0});
    result.spans.push_back({"compile", run.fit_end, run.compile_end, "search", 0});
    result.spans.push_back({"save", run.compile_end, run.end, "search", 0});
    tree_probes(data, options.n_train, m);
  }

  JsonValue out = JsonValue::make_object();
  out.set("metrics", m.to_json());
  JsonValue failures = JsonValue::make_array();
  for (const std::string& f : result.failures) failures.push(JsonValue::make_string(f));
  out.set("failures", std::move(failures));
  out.set("attempted", JsonValue::make_number(static_cast<double>(result.attempted)));
  out.set("failed", JsonValue::make_number(static_cast<double>(result.failed)));
  out.set("digest", JsonValue::make_string(result.digest));
  out.set("spans", spans_to_json(result.spans, 0.0));
  write_file(options.dir + "/search_result_" + std::to_string(options.repeat) + ".json",
             dump_json(out));
  return 0;
}

namespace {

HalfResult run_child(const Options& options,
                     const SearchInputs& inputs, int repeat, bool traced) {
  std::vector<std::string> argv = {self_exe(),
                                   "--run-one=search",
                                   "--workload=" + options.workload,
                                   "--seed=" + std::to_string(options.seed),
                                   "--trace=" + std::string(traced ? "1" : "0"),
                                   "--dir=" + options.dir,
                                   "--n-train=" + std::to_string(inputs.n_train),
                                   "--repeat=" + std::to_string(repeat)};
  if (options.smoke) argv.push_back("--smoke");
  const std::string log = options.dir + "/search.log";
  struct rusage usage {};
  const int status = wait_process(spawn_process(argv, log), 100.0, &usage);
  if (status != 0) {
    throw std::runtime_error("search child " + std::to_string(repeat) + " failed");
  }
  const JsonValue out = parse_json(
      read_file(options.dir + "/search_result_" + std::to_string(repeat) + ".json"));
  HalfResult result;
  result.metrics = Metrics::from_json(out.at("metrics"));
  for (const JsonValue& f : out.at("failures").array) result.failures.push_back(f.str);
  result.attempted = static_cast<std::uint64_t>(out.at("attempted").number);
  result.failed = static_cast<std::uint64_t>(out.at("failed").number);
  result.digest = out.at("digest").str;
  result.spans = spans_from_json(out.at("spans"));
  // ru_maxrss is in kilobytes on Linux.
  result.metrics.set("search_peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                     "MB");
  return result;
}

}  // namespace

// Untraced: three identical searches, each in a fresh child process, and
// the medians of their times. Traced: one untraced search (the baseline
// for observe.search_trace_overhead) and one traced search that supplies
// the per-layer numbers. Every search must produce the same trial history.
HalfResult run_search_half(const Workload& workload, const Options& options,
                           const SearchInputs& inputs) {
  const int n_children = options.trace ? 2 : 3;
  std::vector<HalfResult> children;
  for (int k = 0; k < n_children; ++k) {
    children.push_back(run_child(options, inputs, k, options.trace && k == 1));
  }
  const int n_untraced = options.trace ? 1 : n_children;
  auto median_of = [&](const std::string& name, int n) {
    std::vector<double> values;
    for (int k = 0; k < n; ++k) values.push_back(children[k].metrics.get(name));
    return median(values);
  };

  HalfResult result;
  Metrics& m = result.metrics;
  if (options.trace) m = children[1].metrics;
  m.set("data.csv_read_s", median_of("data.csv_read_s", n_children), "s");
  m.set("search_s", median_of("search_s", n_untraced), "s");
  m.set("time_to_target_s", median_of("time_to_target_s", n_untraced), "s");
  m.set("test_error", children[0].metrics.get("test_error"), "error");
  m.set("search_peak_rss_mb", median_of("search_peak_rss_mb", n_untraced), "MB");
  if (options.trace) {
    m.set("observe.search_trace_overhead",
          children[1].metrics.get("search_s") / children[0].metrics.get("search_s") - 1.0,
          "ratio");
  }
  result.digest = children[0].digest;
  for (int k = 0; k < n_children; ++k) {
    HalfResult& child = children[k];
    result.failures.insert(result.failures.end(), child.failures.begin(),
                           child.failures.end());
    result.spans.insert(result.spans.end(), child.spans.begin(), child.spans.end());
    result.attempted += child.attempted;
    result.failed += child.failed;
    if (child.digest != result.digest) {
      result.failures.push_back("FAIL " + std::string(workload.name) +
                                (options.trace ? " trace_changed_history"
                                               : " repeat_changed_history"));
    }
  }
  return result;
}

}  // namespace e2e
