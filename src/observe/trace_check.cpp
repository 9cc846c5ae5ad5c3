#include "observe/trace_check.h"

#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>

#include "common/error.h"

namespace flaml::observe {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class Checker {
 public:
  explicit Checker(TraceCheckResult& result) : result_(result) {}

  void run() {
    result_.best_error = kInf;
    if (result_.events.empty()) {
      fail(0, "trace is empty");
      return;
    }
    // A serving trace (prediction daemon) opens with predict_daemon_started
    // and follows the predict_* schema — no trials, no run_summary.
    if (result_.events.front().type == "predict_daemon_started") {
      run_serving();
      return;
    }
    for (std::size_t i = 0; i < result_.events.size(); ++i) {
      check_event(i, result_.events[i]);
    }
    if (result_.events.front().type != "run_started") {
      fail(0, "first event must be run_started, got '" +
                  result_.events.front().type + "'");
    }
    const std::size_t n_summaries = count("run_summary");
    if (n_summaries != 1) {
      fail(result_.events.size() - 1,
           "expected exactly one run_summary event, got " +
               std::to_string(n_summaries));
    } else if (result_.events.back().type != "run_summary") {
      fail(result_.events.size() - 1, "run_summary must be the last event");
    }
    check_segments();
  }

  // Started/finished accounting, per SEGMENT. A segment starts at each
  // run_started event; a multi-segment trace is the stitched JSONL of a
  // crash-and-resume sequence (each killed fit() plus the final resumed
  // one). A killed segment may have launched trials it never committed, so
  // it is allowed started >= finished — the resume re-runs those, emitting
  // fresh trial_started events in its own segment. The FINAL segment ran to
  // completion and must balance exactly.
  void check_segments() {
    std::vector<std::size_t> begins;
    for (std::size_t i = 0; i < result_.events.size(); ++i) {
      if (result_.events[i].type == "run_started") begins.push_back(i);
    }
    if (begins.empty()) return;  // already failed "first event" above
    begins.push_back(result_.events.size());
    for (std::size_t s = 0; s + 1 < begins.size(); ++s) {
      std::size_t started = 0;
      std::size_t finished = 0;
      for (std::size_t i = begins[s]; i < begins[s + 1]; ++i) {
        if (result_.events[i].type == "trial_started") ++started;
        if (result_.events[i].type == "trial_finished") ++finished;
      }
      const bool final_segment = s + 2 == begins.size();
      const bool balanced = final_segment ? started == finished
                                          : started >= finished;
      if (!balanced) {
        fail(begins[s], "segment " + std::to_string(s) + ": trial_started count (" +
                            std::to_string(started) + ") " +
                            (final_segment ? "!=" : "<") +
                            " trial_finished count (" + std::to_string(finished) +
                            ")");
      }
    }
  }

  // Serving-mode invariants: every predict_model_loaded carries the full
  // model descriptor with generations strictly increasing from 1; every
  // predict_batch names a generation that has been loaded and carries
  // request/row counts with requests <= rows (requests are whole and
  // non-empty); a batch before the first load is impossible.
  void run_serving() {
    std::uint64_t last_generation = 0;
    for (std::size_t i = 0; i < result_.events.size(); ++i) {
      const TraceEvent& event = result_.events[i];
      ++result_.by_type[event.type];
      if (!(event.time >= 0.0)) {
        fail(i, "timestamp must be >= 0, got " + std::to_string(event.time));
      }
      if (event.type == "predict_daemon_started") {
        if (i != 0) fail(i, "predict_daemon_started must be the first event");
        require(i, event, "max_batch_rows", JsonValue::Type::Number);
        require(i, event, "n_threads", JsonValue::Type::Number);
      } else if (event.type == "predict_model_loaded") {
        require(i, event, "kind", JsonValue::Type::String);
        require(i, event, "task", JsonValue::Type::String);
        require(i, event, "n_features", JsonValue::Type::Number);
        require(i, event, "n_trees", JsonValue::Type::Number);
        require(i, event, "source", JsonValue::Type::String);
        const JsonValue* gen =
            require(i, event, "generation", JsonValue::Type::Number);
        if (gen != nullptr) {
          if (!(gen->number == last_generation + 1.0)) {
            fail(i, "predict_model_loaded generation must increase by 1 (got " +
                        std::to_string(gen->number) + " after " +
                        std::to_string(last_generation) + ")");
          }
          last_generation = static_cast<std::uint64_t>(gen->number);
        }
      } else if (event.type == "predict_batch") {
        const JsonValue* gen =
            require(i, event, "generation", JsonValue::Type::Number);
        const JsonValue* requests =
            require(i, event, "requests", JsonValue::Type::Number);
        const JsonValue* rows =
            require(i, event, "rows", JsonValue::Type::Number);
        require(i, event, "predict_ms", JsonValue::Type::Number);
        if (gen != nullptr &&
            !(gen->number >= 1.0 && gen->number <= last_generation)) {
          fail(i, "predict_batch generation " + std::to_string(gen->number) +
                      " was never loaded");
        }
        if (requests != nullptr && rows != nullptr &&
            requests->number > rows->number) {
          fail(i, "predict_batch has more requests than rows");
        }
      }
      // predict_daemon_drained / predict_daemon_shutdown are field-less;
      // unknown types stay allowed for forward compatibility.
    }
  }

 private:
  std::size_t count(const std::string& type) const {
    const auto it = result_.by_type.find(type);
    return it == result_.by_type.end() ? 0 : it->second;
  }

  void fail(std::size_t index, const std::string& what) {
    result_.errors.push_back("event " + std::to_string(index) + ": " + what);
  }

  const JsonValue* require(std::size_t index, const TraceEvent& event,
                           const char* key, JsonValue::Type type) {
    const JsonValue* field = event.fields.find(key);
    if (field == nullptr || field->type != type) {
      fail(index, event.type + " is missing the required field '" +
                      std::string(key) + "'");
      return nullptr;
    }
    return field;
  }

  // An error-like field: finite number, or the string "inf".
  bool read_error_field(std::size_t index, const TraceEvent& event,
                        const char* key, double& out) {
    const JsonValue* field = event.fields.find(key);
    if (field != nullptr &&
        (field->is_number() || (field->is_string() && field->str == "inf"))) {
      out = error_field_value(*field);
      return true;
    }
    fail(index, event.type + " field '" + std::string(key) +
                    "' must be a number or \"inf\"");
    return false;
  }

  void check_event(std::size_t index, const TraceEvent& event) {
    ++result_.by_type[event.type];
    if (!(event.time >= 0.0)) {
      fail(index, "timestamp must be >= 0, got " + std::to_string(event.time));
    }
    if (event.type == "trial_finished") {
      check_trial_finished(index, event);
    } else if (event.type == "learner_proposed") {
      check_learner_proposed(index, event);
    } else if (event.type == "sample_doubled") {
      const JsonValue* from = require(index, event, "from", JsonValue::Type::Number);
      const JsonValue* to = require(index, event, "to", JsonValue::Type::Number);
      require(index, event, "learner", JsonValue::Type::String);
      if (from != nullptr && to != nullptr && !(from->number < to->number)) {
        fail(index, "sample_doubled must grow the sample");
      }
    } else if (event.type == "trial_started") {
      require(index, event, "learner", JsonValue::Type::String);
      require(index, event, "sample_size", JsonValue::Type::Number);
    } else if (event.type == "trial_raced") {
      // Racing kill: iteration = streamed points consumed up to the kill,
      // planned = the learner's full training length (0 when unreported).
      require(index, event, "learner", JsonValue::Type::String);
      require(index, event, "sample_size", JsonValue::Type::Number);
      require(index, event, "best", JsonValue::Type::Number);
      const JsonValue* it = require(index, event, "iteration", JsonValue::Type::Number);
      const JsonValue* planned = require(index, event, "planned", JsonValue::Type::Number);
      if (it != nullptr && !(it->number >= 1.0)) {
        fail(index, "trial_raced iteration must be >= 1");
      }
      if (it != nullptr && planned != nullptr && planned->number > 0.0 &&
          !(it->number <= planned->number)) {
        fail(index, "trial_raced iteration exceeds the planned iterations");
      }
    } else if (event.type == "substrate_cache") {
      const JsonValue* scope =
          require(index, event, "scope", JsonValue::Type::String);
      require(index, event, "sample_size", JsonValue::Type::Number);
      require(index, event, "max_bin", JsonValue::Type::Number);
      require(index, event, "bytes", JsonValue::Type::Number);
      require(index, event, "packed_bytes", JsonValue::Type::Number);
      const JsonValue* packed_width =
          require(index, event, "packed_width", JsonValue::Type::String);
      if (scope != nullptr && scope->str != "prefix" && scope->str != "fold") {
        fail(index, "substrate_cache scope must be 'prefix' or 'fold', got '" +
                        scope->str + "'");
      }
      if (packed_width != nullptr && packed_width->str != "none" &&
          packed_width->str != "u8" && packed_width->str != "u16") {
        fail(index,
             "substrate_cache packed_width must be none/u8/u16, got '" +
                 packed_width->str + "'");
      }
    } else if (event.type == "run_interrupted") {
      // Cooperative preempt/cancel at a trial boundary (search daemon).
      const JsonValue* signal =
          require(index, event, "signal", JsonValue::Type::String);
      require(index, event, "iteration", JsonValue::Type::Number);
      if (signal != nullptr && signal->str != "preempt" &&
          signal->str != "cancel") {
        fail(index, "run_interrupted signal must be 'preempt' or 'cancel', "
                    "got '" + signal->str + "'");
      }
    } else if (event.type == "run_summary") {
      check_run_summary(index, event);
    }
  }

  void check_trial_finished(std::size_t index, const TraceEvent& event) {
    ++result_.n_trials;
    require(index, event, "learner", JsonValue::Type::String);
    require(index, event, "iteration", JsonValue::Type::Number);
    require(index, event, "sample_size", JsonValue::Type::Number);
    require(index, event, "cost", JsonValue::Type::Number);
    const JsonValue* status = require(index, event, "status", JsonValue::Type::String);
    double error = kInf;
    if (!read_error_field(index, event, "error", error)) return;
    if (status == nullptr) return;
    if (status->str != "ok" && status->str != "killed" &&
        status->str != "failed" && status->str != "raced") {
      fail(index, "unknown trial status '" + status->str + "'");
      return;
    }
    if ((status->str == "ok") != std::isfinite(error)) {
      fail(index, "trial error must be finite exactly when status is ok");
    }
    if (status->str == "ok") result_.best_error = std::min(result_.best_error, error);
  }

  void check_learner_proposed(std::size_t index, const TraceEvent& event) {
    require(index, event, "learner", JsonValue::Type::String);
    const JsonValue* eci = require(index, event, "eci", JsonValue::Type::Array);
    if (eci == nullptr) return;
    if (eci->array.empty()) {
      fail(index, "learner_proposed eci vector is empty");
      return;
    }
    for (const JsonValue& entry : eci->array) {
      if (!entry.is_object() || entry.find("learner") == nullptr ||
          entry.find("eci") == nullptr || entry.find("eci1") == nullptr ||
          entry.find("eci2") == nullptr) {
        fail(index, "eci vector entries need learner/eci/eci1/eci2");
        return;
      }
    }
  }

  void check_run_summary(std::size_t index, const TraceEvent& event) {
    const JsonValue* n = require(index, event, "n_trials", JsonValue::Type::Number);
    require(index, event, "best_learner", JsonValue::Type::String);
    require(index, event, "metrics", JsonValue::Type::Object);
    if (n != nullptr &&
        static_cast<std::size_t>(n->number) != result_.n_trials) {
      fail(index, "run_summary n_trials (" + std::to_string(n->number) +
                      ") != trial_finished count (" +
                      std::to_string(result_.n_trials) + ")");
    }
    double best = kInf;
    if (read_error_field(index, event, "best_error", best)) {
      // Exact match: both sides round-trip through the same double values.
      if (!(best == result_.best_error ||
            (std::isinf(best) && std::isinf(result_.best_error)))) {
        fail(index, "run_summary best_error does not match the running "
                    "minimum over successful trials");
      }
    }
  }

  TraceCheckResult& result_;
};

}  // namespace

TraceCheckResult check_trace_events(const std::vector<TraceEvent>& events) {
  TraceCheckResult result;
  result.events = events;
  Checker(result).run();
  return result;
}

TraceCheckResult check_trace(std::istream& in) {
  TraceCheckResult result;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      result.events.push_back(event_from_json(parse_json(line)));
    } catch (const std::exception& e) {
      result.errors.push_back("line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  if (!result.errors.empty()) return result;  // line numbers beat indices
  Checker(result).run();
  return result;
}

TraceCheckResult check_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    TraceCheckResult result;
    result.errors.push_back("cannot open trace file '" + path + "'");
    return result;
  }
  return check_trace(in);
}

}  // namespace flaml::observe
