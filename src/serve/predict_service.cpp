#include "serve/predict_service.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/wire.h"
#include "data/csv.h"
#include "resume/serial_util.h"

namespace flaml::serve {

namespace {

using wire::error_response;
using wire::ok_response;
using wire::opt;
using wire::opt_string;

JsonValue model_to_json(const PredictDaemon::ModelInfo& info) {
  JsonValue out = JsonValue::make_object();
  out.set("generation",
          resume::json_size(static_cast<std::size_t>(info.generation)));
  const char* kind = info.kind == CompiledKind::Gbdt     ? "gbdt"
                     : info.kind == CompiledKind::Forest ? "forest"
                                                         : "linear";
  out.set("kind", JsonValue::make_string(kind));
  out.set("task", JsonValue::make_string(task_name(info.task)));
  out.set("n_classes", JsonValue::make_number(info.n_classes));
  out.set("n_features", resume::json_size(info.n_features));
  out.set("n_trees", resume::json_size(info.n_trees));
  out.set("source", JsonValue::make_string(info.source));
  return out;
}

float decode_cell(const JsonValue& cell, std::size_t row, std::size_t col) {
  if (cell.is_null()) return std::numeric_limits<float>::quiet_NaN();
  FLAML_REQUIRE(cell.is_number(), "predict row " << row << " cell " << col
                                                 << " must be a number or null");
  return static_cast<float>(cell.number);
}

std::vector<std::vector<float>> decode_rows(const JsonValue& rows) {
  FLAML_REQUIRE(rows.is_array() && !rows.array.empty(),
                "\"rows\" must be a non-empty array of rows");
  std::vector<std::vector<float>> out;
  out.reserve(rows.array.size());
  for (std::size_t r = 0; r < rows.array.size(); ++r) {
    const JsonValue& row = rows.array[r];
    FLAML_REQUIRE(row.is_array(),
                  "predict row " << r << " must be an array of numbers");
    std::vector<float> values;
    values.reserve(row.array.size());
    for (std::size_t c = 0; c < row.array.size(); ++c) {
      values.push_back(decode_cell(row.array[c], r, c));
    }
    out.push_back(std::move(values));
  }
  return out;
}

// Prediction inputs are unlabeled: EVERY column is a feature
// (has_label = false), so the reader cannot silently claim one as a label.
std::vector<std::vector<float>> rows_from_csv(const std::string& path) {
  CsvOptions options;
  options.has_label = false;
  const Dataset data = read_csv_file(path, options);
  std::vector<std::vector<float>> rows(data.n_rows());
  for (std::size_t r = 0; r < data.n_rows(); ++r) {
    rows[r].resize(data.n_cols());
    for (std::size_t c = 0; c < data.n_cols(); ++c) {
      rows[r][c] = data.value(r, c);
    }
  }
  return rows;
}

}  // namespace

PredictService::PredictService(PredictDaemon& daemon) : daemon_(&daemon) {}

JsonValue PredictService::handle(const JsonValue& request) {
  try {
    return dispatch(request);
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

std::string PredictService::handle_line(const std::string& line) {
  JsonValue request;
  try {
    request = parse_json(line);
  } catch (const std::exception& e) {
    return dump_json_compact(
        error_response(std::string("bad request JSON: ") + e.what()));
  }
  return dump_json_compact(handle(request));
}

JsonValue PredictService::dispatch(const JsonValue& request) {
  FLAML_REQUIRE(request.is_object(), "request must be a JSON object");
  const std::string op = opt_string(request, "op", "");
  FLAML_REQUIRE(!op.empty(), "request needs an \"op\" field");

  if (op == "ping") {
    JsonValue out = ok_response();
    out.set("pong", JsonValue::make_bool(true));
    out.set("loaded", JsonValue::make_bool(daemon_->loaded()));
    return out;
  }
  if (op == "load" || op == "swap") {
    const std::string artifact = opt_string(request, "artifact", "");
    FLAML_REQUIRE(!artifact.empty(), op + " needs an \"artifact\" path");
    JsonValue out = ok_response();
    out.set("model", model_to_json(op == "load" ? daemon_->load(artifact)
                                                : daemon_->swap(artifact)));
    return out;
  }
  if (op == "reload") {
    JsonValue out = ok_response();
    const auto info = daemon_->poll_reload();
    out.set("swapped", JsonValue::make_bool(info.has_value()));
    if (info.has_value()) out.set("model", model_to_json(*info));
    return out;
  }
  if (op == "predict") return op_predict(request);
  if (op == "stats") {
    JsonValue out = ok_response();
    out.set("stats", daemon_->stats());
    return out;
  }
  if (op == "drain") {
    daemon_->drain();
    JsonValue out = ok_response();
    out.set("drained", JsonValue::make_bool(true));
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

JsonValue PredictService::op_predict(const JsonValue& request) {
  const JsonValue* rows_field = opt(request, "rows");
  const std::string csv = opt_string(request, "csv", "");
  FLAML_REQUIRE((rows_field != nullptr) != !csv.empty(),
                "predict needs exactly one of \"rows\" / \"csv\"");
  const std::vector<std::vector<float>> rows =
      rows_field != nullptr ? decode_rows(*rows_field) : rows_from_csv(csv);

  const PredictDaemon::Reply reply = daemon_->predict(rows);

  JsonValue out = ok_response();
  out.set("task", JsonValue::make_string(task_name(reply.pred.task)));
  out.set("generation",
          resume::json_size(static_cast<std::size_t>(reply.generation)));
  out.set("batch_rows", resume::json_size(reply.batch_rows));
  out.set("batch_requests", resume::json_size(reply.batch_requests));
  if (is_classification(reply.pred.task)) {
    out.set("n_classes", JsonValue::make_number(reply.pred.n_classes));
    JsonValue values = JsonValue::make_array();
    JsonValue classes = JsonValue::make_array();
    for (std::size_t r = 0; r < reply.pred.n_rows(); ++r) {
      JsonValue row = JsonValue::make_array();
      int best = 0;
      for (int c = 0; c < reply.pred.n_classes; ++c) {
        row.push(JsonValue::make_number(reply.pred.prob(r, c)));
        if (reply.pred.prob(r, c) > reply.pred.prob(r, best)) best = c;
      }
      values.push(std::move(row));
      classes.push(JsonValue::make_number(best));
    }
    out.set("values", std::move(values));
    out.set("classes", std::move(classes));
  } else {
    JsonValue values = JsonValue::make_array();
    for (double v : reply.pred.values) values.push(JsonValue::make_number(v));
    out.set("values", std::move(values));
  }
  return out;
}

}  // namespace flaml::serve
