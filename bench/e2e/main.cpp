// e2e_bench — the repository's end-to-end benchmark (README.md).
//
//   e2e_bench [--workload=NAME] [--seed=N] [--seconds=S] [--trace=0|1] [--smoke]
//
// Flags also take the "--flag value" form. Without --workload every workload
// runs. Each run prints its metrics one per line with units, then one JSON
// line {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// of BENCHMARK.json with --trace=0, its per-layer metrics with --trace=1.
// Any failed check prints "FAIL <workload> <check>" and the exit code is 1.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>

#include "e2e.h"

namespace e2e {

using flaml::JsonValue;
using flaml::ResamplingPolicy;

const std::vector<Workload>& workloads() {
  // max_iterations makes each full-size search take about 15 s on a 4-core
  // 2.1 GHz Xeon; target_error is the best error each reaches at two
  // thirds of its trials (README.md, "Calibration").
  static const std::vector<Workload> list = {
      {"reg_holdout.small_open",
       {"bng-pbc", ResamplingPolicy::ForceHoldout, 1, 1, 45, 0.23198333633179669, 0.05, 12},
       Traffic::SmallOpen},
      {"cls_cv.bulk_swap",
       {"adult", ResamplingPolicy::ForceCV, 2, 2, 43, 0.066236996834011769, 0.2, 12},
       Traffic::BulkSwap},
  };
  return list;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

Options parse_options(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument " + arg);
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (arg == "smoke") {
      flags.insert_or_assign(arg, std::string(1, '1'));
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      throw std::invalid_argument("--" + arg + " needs a value");
    }
  }
  for (const auto& [key, value] : flags) {
    if (key == "workload") o.workload = value;
    else if (key == "seed") o.seed = std::stoull(value);
    else if (key == "seconds") o.seconds = std::stod(value);
    else if (key == "trace") o.trace = value == "1";
    else if (key == "smoke") o.smoke = value == "1";
    else if (key == "run-one") o.run_one = value;
    else if (key == "dir") o.dir = value;
    else if (key == "n-train") o.n_train = std::stoull(value);
    else if (key == "repeat") o.repeat = std::stoi(value);
    else throw std::invalid_argument("unknown flag --" + key);
  }
  if (!o.workload.empty() && find_workload(o.workload) == nullptr) {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  return o;
}

// The metric names and units BENCHMARK.json declares; a run must report
// exactly these, so the file and the code cannot drift apart.
struct Schema {
  std::vector<std::string> workloads;
  std::vector<std::pair<std::string, std::string>> end_to_end, per_layer;
};

Schema load_schema() {
  const JsonValue root = flaml::parse_json(read_file(FLAML_BENCHMARK_JSON));
  Schema schema;
  for (const JsonValue& w : root.at("workloads").array) {
    schema.workloads.push_back(w.at("name").str);
  }
  for (const JsonValue& m : root.at("end_to_end").array) {
    schema.end_to_end.push_back({m.at("name").str, m.at("unit").str});
  }
  for (const JsonValue& m : root.at("per_layer").array) {
    schema.per_layer.push_back({m.at("name").str, m.at("unit").str});
  }
  return schema;
}

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  Metrics metrics;
  std::string digest;
};

RunResult run_workload(const Workload& workload, Options options, const Schema& schema) {
  const std::string build = std::filesystem::path(self_exe()).parent_path().string();
  const std::string dir =
      build + "/tmp/" + workload.name + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::create_directories(build + "/out");
  // Daemon sockets are named relative to the run directory: AF_UNIX paths
  // are limited to 107 bytes, and the checkout path may be long.
  const auto home = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  options.workload = workload.name;
  options.dir = dir;

  const double start = now_s();
  std::vector<std::string> failures;
  RunResult result;
  std::vector<Span> spans;
  Metrics all;
  try {
    const SearchInputs search_inputs =
        write_search_csv(workload, options.seed, options.smoke, dir);
    const ServeInputs serve_inputs =
        write_serve_inputs(workload, options.seed, options.smoke, dir);
    for (HalfResult half : {run_search_half(workload, options, search_inputs),
                            run_serve_half(workload, options, serve_inputs)}) {
      all.merge(half.metrics);
      failures.insert(failures.end(), half.failures.begin(), half.failures.end());
      spans.insert(spans.end(), half.spans.begin(), half.spans.end());
      result.attempted += half.attempted;
      result.failed += half.failed;
      if (!half.digest.empty()) result.digest = half.digest;
    }
  } catch (const std::exception& e) {
    failures.push_back("FAIL " + std::string(workload.name) + " exception: " + e.what());
  }
  all.set("setup_s", all.get("data.csv_read_s") + all.get("serve.daemon_ready_s"), "s");

  const auto& wanted = options.trace ? schema.per_layer : schema.end_to_end;
  for (const auto& [name, unit] : wanted) {
    bool found = false;
    for (const auto& [have, vu] : all.items()) {
      if (have != name) continue;
      found = true;
      if (vu.second != unit) {
        failures.push_back("FAIL " + std::string(workload.name) + " unit_of:" + name);
      }
      result.metrics.set(name, vu.first, unit);
    }
    if (!found && failures.empty()) {
      failures.push_back("FAIL " + std::string(workload.name) + " missing_metric:" + name);
    }
  }
  if (result.attempted == 0) result.attempted = 1;

  if (options.trace) {
    spans.push_back({"workload", start, now_s(), "", 0});
    write_file(build + "/out/trace_" + workload.name + ".json",
               flaml::dump_json(spans_to_json(spans, start)));
  }
  std::filesystem::current_path(home);
  if (failures.empty()) {
    std::filesystem::remove_all(dir);
  } else {
    std::cerr << "run directory kept for inspection: " << dir << "\n";
  }
  for (const std::string& f : failures) std::cout << f << "\n";
  result.correct = failures.empty();
  return result;
}

void print_result(const Workload& workload, const Options& options, const RunResult& r) {
  for (const auto& [name, vu] : r.metrics.items()) {
    std::printf("%-24s %-32s %.6g %s\n", workload.name, name.c_str(), vu.first,
                vu.second.c_str());
  }
  JsonValue line = JsonValue::make_object();
  line.set("correct", JsonValue::make_bool(r.correct));
  line.set("attempted", JsonValue::make_number(static_cast<double>(r.attempted)));
  line.set("failed", JsonValue::make_number(static_cast<double>(r.failed)));
  line.set("metrics", r.metrics.to_json());
  const std::string compact = flaml::dump_json_compact(line);

  // A copy with the run's identity, for bench/e2e/compare.
  JsonValue record = line;
  record.set("workload", JsonValue::make_string(workload.name));
  record.set("seed", JsonValue::make_number(static_cast<double>(options.seed)));
  record.set("trace", JsonValue::make_bool(options.trace));
  record.set("digest", JsonValue::make_string(r.digest));
  const std::string results =
      std::filesystem::path(self_exe()).parent_path().string() + "/out/results";
  std::filesystem::create_directories(results);
  write_file(results + "/" + workload.name + "-s" + std::to_string(options.seed) + "-t" +
                 (options.trace ? "1" : "0") + "-" + std::to_string(::getpid()) + ".json",
             flaml::dump_json(record));
  std::printf("%s\n", compact.c_str());
  std::fflush(stdout);
}

}  // namespace

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  // A daemon that dies mid-write must surface as a failed check, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  Options options;
  try {
    options = parse_options(argc, argv);
    if (options.run_one == "search") return run_search_child(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
  try {
    const Schema schema = load_schema();
    std::set<std::string> declared(schema.workloads.begin(), schema.workloads.end());
    bool all_correct = true;
    for (const Workload& workload : workloads()) {
      if (declared.count(workload.name) == 0) {
        throw std::runtime_error(std::string("workload ") + workload.name +
                                 " is not in BENCHMARK.json");
      }
      if (!options.workload.empty() && options.workload != workload.name) continue;
      const RunResult result = run_workload(workload, options, schema);
      print_result(workload, options, result);
      all_correct = all_correct && result.correct;
    }
    return all_correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
