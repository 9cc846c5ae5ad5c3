// End-to-end benchmark: shared types and helpers.
//
// Every workload is one user's model lifecycle, measured from outside the
// library: a CSV goes in, AutoML::fit searches it, the best model comes out
// as a compiled artifact, and the real flaml_predict_serve daemon answers
// prediction requests over AF_UNIX. The search half runs in a child process
// (so its peak RSS is its own), the serving half drives a daemon process
// from one load-generator process. Nothing here adds instrumentation to
// src/: per-layer numbers come from the benchmark's own timers around
// public calls, the search's trace events and the daemon's `stats` op.
// README.md documents the workloads, metrics and predictions.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "automl/automl.h"
#include "common/json.h"

namespace e2e {

// ---------------------------------------------------------------- workloads

enum class Traffic { SmallOpen, BulkSwap };

struct SearchSpec {
  const char* suite;  // src/data/suite.h entry
  flaml::ResamplingPolicy resampling;
  int n_parallel;
  int n_threads;
  std::size_t max_iterations;  // fixed work: the search never hits its budget
  // Best-so-far validation error that defines time_to_target_s: the error
  // the full-size search reaches at two thirds of its trials.
  double target_error;
  // --smoke: the same code paths on a fraction of the rows and trials.
  double smoke_row_scale;
  std::size_t smoke_iterations;
};

struct Workload {
  const char* name;
  SearchSpec search;
  Traffic traffic;
};

const Workload* find_workload(const std::string& name);
const std::vector<Workload>& workloads();

struct Options {
  std::string workload;   // empty = every workload
  std::uint64_t seed = 1;
  double seconds = 45.0;  // one run's measured time (README: "Run length")
  bool trace = false;
  bool smoke = false;     // tiny sizes, same code paths (ctest)
  std::string run_one;    // internal: "search" = the search child
  std::string dir;        // internal: the run directory of the parent
  std::size_t n_train = 0;  // internal: rows of the CSV that are train rows
  int repeat = 0;           // internal: which search child this is
};

// ------------------------------------------------------------------ metrics

// Named values with units, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  void merge(const Metrics& other);
  double get(const std::string& name) const;  // 0 when absent
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }
  flaml::JsonValue to_json() const;
  static Metrics from_json(const flaml::JsonValue& value);

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// ------------------------------------------------------------------- spans

// The benchmark's own trace: one span per layer boundary it crosses.
// `parent` names the span that caused this one; `id` is shared by the spans
// of one trial (its iteration) or one request.
struct Span {
  std::string name;
  double start = 0.0;  // steady-clock seconds (shared by all processes)
  double end = 0.0;
  std::string parent;
  std::uint64_t id = 0;
};

flaml::JsonValue spans_to_json(const std::vector<Span>& spans, double origin);
std::vector<Span> spans_from_json(const flaml::JsonValue& value);

// -------------------------------------------------------------------- stats

double now_s();  // steady clock, comparable across processes on one host
// An independent seed for one input stream (salt) of a run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);
// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// -------------------------------------------------------------- files, procs

void write_file(const std::string& path, const std::string& bytes);
std::string read_file(const std::string& path);
std::string self_exe();

// posix_spawn with stdin from /dev/null and stdout+stderr appended to `log`.
pid_t spawn_process(const std::vector<std::string>& argv, const std::string& log);
// Wait up to timeout_s, then SIGKILL; returns the exit status (-1 if it had
// to be killed). `usage` (may be null) receives the child's rusage.
int wait_process(pid_t pid, double timeout_s, struct rusage* usage);
double vm_hwm_mb(pid_t pid);  // 0 when /proc is unavailable

// ------------------------------------------------------------------ sockets

// Blocking line-oriented AF_UNIX connection.
class LineConn {
 public:
  explicit LineConn(const std::string& path);  // throws on failure
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;
  LineConn(LineConn&& other) noexcept;  // vector<LineConn> moves them
  LineConn& operator=(LineConn&&) = delete;

  int fd() const { return fd_; }
  void send(std::string_view bytes);  // throws on a short write
  // Next '\n'-terminated line without the terminator; empty on EOF.
  std::string read_line();
  std::string round_trip(std::string_view line);
  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t start_ = 0;
};

// A predict reply, scanned without building a JSON tree (bulk replies
// carry 2048 numbers, and every reply is checked).
struct ReplyView {
  bool ok = false;
  std::uint64_t generation = 0;
  std::vector<double> values;
};
bool scan_reply(std::string_view line, ReplyView& out);
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b);

// ---------------------------------------------------------------- the halves

// Inputs the parent generates from --seed into the run directory.
struct SearchInputs {
  std::size_t n_train = 0;  // search.csv holds the train rows, then the test rows
};
SearchInputs write_search_csv(const Workload& workload, std::uint64_t seed,
                              bool smoke, const std::string& dir);

struct ServeInputs {
  std::string artifact[2];   // A (served first) and B (the swap target)
  std::size_t rows_per_request = 0;
  std::vector<std::string> payloads;           // predict request lines
  std::vector<flaml::Dataset> frames;          // the rows of each payload
  std::vector<std::vector<double>> expect[2];  // per artifact, per payload
};
ServeInputs write_serve_inputs(const Workload& workload, std::uint64_t seed,
                               bool smoke, const std::string& dir);

// Failures are "FAIL <workload> <check>" lines; any failure fails the run.
struct HalfResult {
  Metrics metrics;
  std::vector<std::string> failures;
  std::vector<Span> spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;  // search: trial-history digest
};

// The search child's entry point (--run-one=search).
int run_search_child(const Options& options);
// The parent's side: spawn the children, wait, combine their results.
HalfResult run_search_half(const Workload& workload, const Options& options,
                           const SearchInputs& inputs);

HalfResult run_serve_half(const Workload& workload, const Options& options,
                          const ServeInputs& inputs);

}  // namespace e2e
