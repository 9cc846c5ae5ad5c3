// Prediction-serving benchmark for the micro-batching daemon
// (src/serve/predict_daemon.h). Trains a GBDT serving ensemble, compiles
// and saves it as a `flaml-compiled v1` artifact, then drives the daemon
// with concurrent client threads at several batch windows (the
// max_batch_rows cap; the batcher flushes whenever it is free) and writes
// machine-readable results to BENCH_predict_serve.json: a direct
// predict_many baseline plus, per (batch window × client count), per-request
// latency percentiles (p50/p90/p99), rows/sec throughput and the observed
// mean batch occupancy. Also re-asserts the serving bit-identity contract
// on the benchmark traffic: every daemon reply must be bit-identical to
// predicting that client's rows alone with predict_many — batching must
// never change a single output bit.
//
// Usage:
//   bench_predict_serve [--rows=N] [--features=N] [--trees=N] [--leaves=N]
//                       [--requests=N] [--request-rows=N]
//                       [--out=BENCH_predict_serve.json] [--check]
// --check re-reads the emitted file through the JSON parser, validates its
// shape and requires the bit-identity report to be all-true (the ctest
// smoke test and release CI run this).
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "boosting/gbdt.h"
#include "common/clock.h"
#include "common/json.h"
#include "data/generators.h"
#include "serve/predict_daemon.h"

namespace flaml::bench {
namespace {

struct WindowSpec {
  std::size_t max_batch_rows;
  int clients;
};

constexpr WindowSpec kWindows[] = {
    {1, 4},     // every request is its own batch (batching disabled)
    {64, 4},    // small window
    {256, 4},   // default window
    {256, 8},   // default window, more concurrency
};

std::vector<std::vector<float>> make_rows(std::size_t n_rows, std::size_t width,
                                          std::uint64_t seed) {
  std::vector<std::vector<float>> rows(n_rows, std::vector<float>(width));
  std::uint64_t state = seed;
  for (auto& row : rows) {
    for (float& v : row) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<float>((state >> 33) % 2000) / 100.0f - 10.0f;
    }
  }
  return rows;
}

Dataset rows_to_dataset(const std::vector<std::vector<float>>& rows) {
  const std::size_t width = rows[0].size();
  Dataset data(Task::Regression, std::vector<ColumnInfo>(width, ColumnInfo{}));
  for (std::size_t c = 0; c < width; ++c) {
    std::vector<float> column(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) column[r] = rows[r][c];
    data.set_column(c, std::move(column));
  }
  data.set_labels(std::vector<double>(rows.size(), 0.0));
  return data;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// One daemon configuration: `clients` threads each fire `requests`
// fixed-row requests back to back; every reply is bit-compared against the
// per-client direct predict_many reference.
JsonValue bench_window(const serve::CompiledModel& model,
                       const std::string& artifact_path, const WindowSpec& spec,
                       int requests, std::size_t request_rows,
                       bool* identical_out) {
  serve::PredictDaemonOptions options;
  options.max_batch_rows = spec.max_batch_rows;
  options.n_threads = 2;
  serve::PredictDaemon daemon(options);
  daemon.load(artifact_path);

  std::vector<std::vector<std::vector<float>>> rows(
      static_cast<std::size_t>(spec.clients));
  std::vector<Predictions> reference(static_cast<std::size_t>(spec.clients));
  for (int c = 0; c < spec.clients; ++c) {
    rows[c] = make_rows(request_rows, model.n_features(),
                        0x9000 + static_cast<std::uint64_t>(c));
    reference[c] = model.predict_many(DataView(rows_to_dataset(rows[c])), 1);
  }

  std::mutex merge_mutex;
  std::vector<double> latencies;
  double batch_rows_sum = 0.0;
  bool identical = true;
  WallClock clock;
  Stopwatch wall(clock);
  std::vector<std::thread> workers;
  for (int c = 0; c < spec.clients; ++c) {
    workers.emplace_back([&, c] {
      std::vector<double> local;
      local.reserve(static_cast<std::size_t>(requests));
      double local_batch_rows = 0.0;
      bool local_identical = true;
      for (int i = 0; i < requests; ++i) {
        Stopwatch timer(clock);
        const serve::PredictDaemon::Reply reply = daemon.predict(rows[c]);
        local.push_back(timer.elapsed());
        local_batch_rows += static_cast<double>(reply.batch_rows);
        local_identical = local_identical &&
                          bits_equal(reply.pred.values, reference[c].values);
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      latencies.insert(latencies.end(), local.begin(), local.end());
      batch_rows_sum += local_batch_rows;
      identical = identical && local_identical;
    });
  }
  for (auto& t : workers) t.join();
  const double wall_s = wall.elapsed();
  daemon.drain();

  std::sort(latencies.begin(), latencies.end());
  const double total_rows = static_cast<double>(request_rows) *
                            static_cast<double>(requests) *
                            static_cast<double>(spec.clients);

  JsonValue entry = JsonValue::make_object();
  entry.set("max_batch_rows",
            JsonValue::make_number(static_cast<double>(spec.max_batch_rows)));
  entry.set("clients", JsonValue::make_number(spec.clients));
  entry.set("requests", JsonValue::make_number(requests * spec.clients));
  entry.set("latency_p50_s", JsonValue::make_number(percentile(latencies, 50.0)));
  entry.set("latency_p90_s", JsonValue::make_number(percentile(latencies, 90.0)));
  entry.set("latency_p99_s", JsonValue::make_number(percentile(latencies, 99.0)));
  entry.set("rows_per_sec",
            JsonValue::make_number(wall_s > 0.0 ? total_rows / wall_s : 0.0));
  entry.set("mean_batch_rows",
            JsonValue::make_number(
                latencies.empty()
                    ? 0.0
                    : batch_rows_sum / static_cast<double>(latencies.size())));
  entry.set("bit_identical", JsonValue::make_bool(identical));
  if (identical_out != nullptr) *identical_out = identical;
  std::cerr << "  window=" << spec.max_batch_rows << " clients=" << spec.clients
            << ": p50=" << percentile(latencies, 50.0) << " s, "
            << (wall_s > 0.0 ? total_rows / wall_s : 0.0) << " rows/s, "
            << (identical ? "bit-identical" : "DIVERGED") << "\n";
  return entry;
}

// Single-call predict_many over the same total rows: the no-daemon floor.
JsonValue bench_direct(const serve::CompiledModel& model, int requests,
                       std::size_t request_rows) {
  const auto rows = make_rows(request_rows, model.n_features(), 0x9000);
  const Dataset data = rows_to_dataset(rows);
  const DataView view(data);
  WallClock clock;
  std::vector<double> latencies;
  model.predict_many(view, 2);  // warm-up
  for (int i = 0; i < requests; ++i) {
    Stopwatch timer(clock);
    model.predict_many(view, 2);
    latencies.push_back(timer.elapsed());
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 50.0);
  JsonValue entry = JsonValue::make_object();
  entry.set("latency_p50_s", JsonValue::make_number(p50));
  entry.set("latency_p90_s", JsonValue::make_number(percentile(latencies, 90.0)));
  entry.set("latency_p99_s", JsonValue::make_number(percentile(latencies, 99.0)));
  entry.set("rows_per_sec",
            JsonValue::make_number(
                p50 > 0.0 ? static_cast<double>(request_rows) / p50 : 0.0));
  std::cerr << "  direct predict_many: p50=" << p50 << " s\n";
  return entry;
}

// Validate the shape --check depends on; throws on any mismatch.
void check_result_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot reopen " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = parse_json(buffer.str());
  if (!root.is_object()) throw std::runtime_error("root is not an object");
  for (const char* key : {"rows", "features", "trees", "request_rows"}) {
    const JsonValue* v = root.find(key);
    if (v == nullptr || !v->is_number()) {
      throw std::runtime_error(std::string("missing numeric field '") + key +
                               "'");
    }
  }
  const JsonValue* direct = root.find("direct");
  if (direct == nullptr || direct->find("latency_p50_s") == nullptr) {
    throw std::runtime_error("missing direct baseline");
  }
  const JsonValue* windows = root.find("windows");
  if (windows == nullptr || !windows->is_array() ||
      windows->array.size() != std::size(kWindows)) {
    throw std::runtime_error("missing windows array");
  }
  for (const JsonValue& entry : windows->array) {
    for (const char* key : {"latency_p50_s", "latency_p90_s", "latency_p99_s",
                            "rows_per_sec", "mean_batch_rows"}) {
      const JsonValue* v = entry.find(key);
      if (v == nullptr || !v->is_number() || v->number < 0.0) {
        throw std::runtime_error(std::string("malformed timing field '") + key +
                                 "'");
      }
    }
    const JsonValue* identical = entry.find("bit_identical");
    if (identical == nullptr || !identical->is_bool()) {
      throw std::runtime_error("window lacks bit_identical");
    }
  }
  const JsonValue* report = root.find("bit_identity");
  if (report == nullptr || report->find("all_identical") == nullptr) {
    throw std::runtime_error("missing bit_identity report");
  }
}

int run(int argc, char** argv) {
  Args args(argc, argv);
  const int n_rows = args.get_int("rows", 8000);
  const int n_features = args.get_int("features", 16);
  const int n_trees = args.get_int("trees", 150);
  const int n_leaves = args.get_int("leaves", 32);
  const int requests = args.get_int("requests", 50);
  const int request_rows = args.get_int("request-rows", 16);
  const std::string out_path = args.get_string("out", "BENCH_predict_serve.json");

  std::cerr << "bench_predict_serve: rows=" << n_rows
            << " features=" << n_features << " trees=" << n_trees
            << " requests/client=" << requests
            << " request_rows=" << request_rows << "\n";

  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = static_cast<std::size_t>(n_rows);
  spec.n_features = n_features;
  spec.nonlinearity = 0.5;
  spec.missing_fraction = 0.05;
  spec.seed = 0xce11;
  const Dataset data = make_synthetic(spec);
  GBDTParams params;
  params.n_trees = n_trees;
  params.max_leaves = n_leaves;
  params.seed = 17;
  const GBDTModel gbdt = train_gbdt(DataView(data), nullptr, params);
  const serve::CompiledModel model = serve::compile(gbdt);
  const std::string artifact_path = out_path + ".artifact.bin";
  model.save_file(artifact_path);

  JsonValue root = JsonValue::make_object();
  root.set("benchmark", JsonValue::make_string("predict_serve"));
  root.set("rows", JsonValue::make_number(n_rows));
  root.set("features", JsonValue::make_number(n_features));
  root.set("trees", JsonValue::make_number(n_trees));
  root.set("request_rows", JsonValue::make_number(request_rows));
  root.set("hardware_concurrency",
           JsonValue::make_number(std::thread::hardware_concurrency()));

  root.set("direct",
           bench_direct(model, requests, static_cast<std::size_t>(request_rows)));

  JsonValue windows = JsonValue::make_array();
  bool all_identical = true;
  for (const WindowSpec& window : kWindows) {
    bool identical = true;
    windows.push(bench_window(model, artifact_path, window, requests,
                              static_cast<std::size_t>(request_rows),
                              &identical));
    all_identical = all_identical && identical;
  }
  root.set("windows", std::move(windows));

  JsonValue report = JsonValue::make_object();
  report.set("all_identical", JsonValue::make_bool(all_identical));
  root.set("bit_identity", std::move(report));
  std::remove(artifact_path.c_str());

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
      std::cerr << "check failed: a daemon reply diverged from predict_many\n";
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
    std::cerr << "bench_predict_serve: " << e.what() << "\n";
    return 1;
  }
}
