#include "server/service.h"

#include <limits>

#include "common/error.h"
#include "common/wire.h"
#include "observe/trace.h"
#include "resume/serial_util.h"

namespace flaml::server {

namespace {

using wire::error_response;
using wire::ok_response;
using wire::opt;
using wire::opt_int;
using wire::opt_number;
using wire::opt_size;
using wire::opt_string;
using wire::req_id;

// Caps on a "synthetic" submit, which the daemon materializes in memory
// before the job is queued. The cell cap, 2^24 (16.8M float cells, 64 MiB
// of feature columns), is about 9x the largest dataset in the benchmark
// suite (src/data/suite.cpp: covertype, 35,000 rows x 54 features =
// 1.89M cells), so no request can make the daemon allocate without bound.
constexpr std::uint64_t kMaxSyntheticCells = std::uint64_t{1} << 24;
constexpr std::uint64_t kMaxSyntheticFeatures = 4096;
constexpr std::uint64_t kMaxSyntheticClasses = 256;

Task parse_task(const std::string& name) {
  if (name == "binary") return Task::BinaryClassification;
  if (name == "multiclass") return Task::MultiClassification;
  if (name == "regression") return Task::Regression;
  throw InvalidArgument("unknown task '" + name +
                        "' (binary|multiclass|regression)");
}

JsonValue window_to_json(const RingTraceSink::Window& window) {
  JsonValue out = ok_response();
  JsonValue events = JsonValue::make_array();
  std::uint64_t seq = window.first;
  for (const observe::TraceEvent& event : window.events) {
    JsonValue e = observe::to_json(event);
    e.set("seq", resume::json_size(static_cast<std::size_t>(seq++)));
    events.push(std::move(e));
  }
  out.set("events", std::move(events));
  out.set("first", resume::json_size(static_cast<std::size_t>(window.first)));
  out.set("next", resume::json_size(static_cast<std::size_t>(window.next)));
  out.set("dropped",
          resume::json_size(static_cast<std::size_t>(window.dropped)));
  return out;
}

}  // namespace

SearchService::SearchService(SearchDaemon& daemon) : daemon_(&daemon) {}

JsonValue SearchService::handle(const JsonValue& request) {
  try {
    return dispatch(request);
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

std::string SearchService::handle_line(const std::string& line) {
  JsonValue request;
  try {
    request = parse_json(line);
  } catch (const std::exception& e) {
    return dump_json_compact(
        error_response(std::string("bad request JSON: ") + e.what()));
  }
  return dump_json_compact(handle(request));
}

JsonValue SearchService::dispatch(const JsonValue& request) {
  FLAML_REQUIRE(request.is_object(), "request must be a JSON object");
  const std::string op = opt_string(request, "op", "");
  FLAML_REQUIRE(!op.empty(), "request needs an \"op\" field");

  if (op == "ping") {
    JsonValue out = ok_response();
    out.set("pong", JsonValue::make_bool(true));
    out.set("slots", resume::json_size(daemon_->slots()));
    return out;
  }
  if (op == "submit") return op_submit(request);
  if (op == "status") {
    JsonValue out = ok_response();
    out.set("job", daemon_->status(req_id(request)));
    return out;
  }
  if (op == "list") {
    JsonValue out = ok_response();
    out.set("jobs", daemon_->list());
    return out;
  }
  if (op == "cancel") {
    JsonValue out = ok_response();
    out.set("cancelled", JsonValue::make_bool(daemon_->cancel(req_id(request))));
    return out;
  }
  if (op == "preempt") {
    JsonValue out = ok_response();
    out.set("preempted", JsonValue::make_bool(daemon_->preempt(req_id(request))));
    return out;
  }
  if (op == "result") {
    JsonValue out = ok_response();
    out.set("result", daemon_->result(req_id(request)));
    return out;
  }
  if (op == "events") {
    const std::uint64_t since =
        static_cast<std::uint64_t>(opt_size(request, "since", 0));
    return window_to_json(daemon_->events(req_id(request), since));
  }
  if (op == "wait") {
    const std::uint64_t id = req_id(request);
    daemon_->wait(id);
    JsonValue out = ok_response();
    out.set("job", daemon_->status(id));
    return out;
  }
  if (op == "wait_all") {
    daemon_->wait_all();
    JsonValue out = ok_response();
    out.set("jobs", daemon_->list());
    return out;
  }
  if (op == "shutdown") {
    daemon_->shutdown();
    shutdown_requested_.store(true);
    JsonValue out = ok_response();
    out.set("bye", JsonValue::make_bool(true));
    return out;
  }
  throw InvalidArgument("unknown op '" + op + "'");
}

std::shared_ptr<const Dataset> SearchService::load_dataset(
    const JsonValue& request) {
  if (opt(request, "csv") != nullptr) {
    const std::string path = opt_string(request, "csv", "");
    const Task task = parse_task(opt_string(request, "task", "binary"));
    const std::string label = opt_string(request, "label", "");
    return dataset_cache_.load_csv(path, task, label);
  }
  const JsonValue* synthetic = opt(request, "synthetic");
  FLAML_REQUIRE(synthetic != nullptr,
                "submit needs either \"csv\" or \"synthetic\"");
  FLAML_REQUIRE(synthetic->is_object(), "\"synthetic\" must be an object");
  SyntheticSpec spec;
  spec.task = parse_task(opt_string(*synthetic, "task", "binary"));
  spec.n_rows = opt_size(*synthetic, "rows", 600, kMaxSyntheticCells);
  const std::size_t features =
      opt_size(*synthetic, "features", 8, kMaxSyntheticFeatures);
  FLAML_REQUIRE(spec.n_rows * features <= kMaxSyntheticCells,
                "synthetic rows x features must be <= " << kMaxSyntheticCells
                    << ", got " << spec.n_rows << " x " << features);
  spec.n_features = static_cast<int>(features);
  spec.n_classes =
      static_cast<int>(opt_size(*synthetic, "classes", 2, kMaxSyntheticClasses));
  spec.seed = opt_size(*synthetic, "seed", 1);
  return dataset_cache_.load_synthetic(spec);
}

JsonValue SearchService::op_submit(const JsonValue& request) {
  std::shared_ptr<const Dataset> data = load_dataset(request);

  AutoMLOptions options;
  options.time_budget_seconds = opt_number(request, "budget_seconds", 5.0);
  options.metric = opt_string(request, "metric", "");
  options.max_iterations = opt_size(request, "max_iterations", 0);
  options.seed = opt_size(request, "seed", 1);
  if (const JsonValue* estimators = opt(request, "estimators")) {
    FLAML_REQUIRE(estimators->is_array(),
                  "field 'estimators' must be an array of names");
    for (const JsonValue& name : estimators->array) {
      FLAML_REQUIRE(name.is_string(), "estimator names must be strings");
      options.estimator_list.push_back(name.str);
    }
  }

  JobOptions job_options;
  job_options.name = opt_string(request, "name", "");
  job_options.priority = static_cast<int>(
      opt_int(request, "priority", 0, std::numeric_limits<int>::min(),
              std::numeric_limits<int>::max()));
  job_options.quantum_trials = opt_size(request, "quantum_trials", 8);
  job_options.deadline_seconds = opt_number(request, "deadline_seconds", 0.0);

  std::vector<LearnerPtr> extra_learners;
  if (customize_) customize_(options, extra_learners);

  const std::uint64_t id = daemon_->submit(std::move(data), std::move(options),
                                           std::move(job_options),
                                           std::move(extra_learners));
  JsonValue out = ok_response();
  out.set("id", resume::json_size(static_cast<std::size_t>(id)));
  return out;
}

}  // namespace flaml::server
