// flaml_train — command-line AutoML on a CSV file.
//
// Usage:
//   flaml_train --data=train.csv --task=binary|multiclass|regression \
//               [--label=<column>] [--budget=60] [--metric=auc|log_loss|...] \
//               [--estimators=lgbm,xgboost,...] [--model-out=model.txt] \
//               [--history-out=history.csv] [--holdout=0.2] [--seed=1] [--verbose]
//
// Trains under the budget, reports the best learner/config and the error on
// an internal holdout split, and optionally persists the model (loadable by
// flaml_predict) and the trial history.

#include <cstdio>
#include <fstream>
#include <iostream>

#include "automl/automl.h"
#include "common/log.h"
#include "data/csv.h"
#include "data/split.h"
#include "flags.h"

using namespace flaml;

namespace {

Task parse_task(const std::string& name) {
  if (name == "binary") return Task::BinaryClassification;
  if (name == "multiclass") return Task::MultiClassification;
  if (name == "regression") return Task::Regression;
  throw InvalidArgument("unknown task '" + name + "' (binary|multiclass|regression)");
}

std::vector<std::string> parse_list(const std::string& text) {
  std::vector<std::string> out;
  std::string token;
  for (char c : text) {
    if (c == ',') {
      if (!token.empty()) out.push_back(token);
      token.clear();
    } else {
      token += c;
    }
  }
  if (!token.empty()) out.push_back(token);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string data_path = flag(argc, argv, "data", "");
    if (data_path.empty()) {
      std::fprintf(stderr,
                   "usage: flaml_train --data=train.csv --task=binary "
                   "[--label=col] [--budget=60] [--metric=...] "
                   "[--estimators=a,b] [--model-out=m.txt] "
                   "[--history-out=h.csv] [--holdout=0.2] [--seed=1]\n");
      return 2;
    }
    if (flag(argc, argv, "verbose", "") == "1") {
      logging::set_level(LogLevel::Info);
    }

    CsvOptions csv_options;
    csv_options.task = parse_task(flag(argc, argv, "task", "binary"));
    csv_options.label_column = flag(argc, argv, "label", "");
    Dataset data = read_csv_file(data_path, csv_options);
    std::printf("loaded %zu rows x %zu features (%s)\n", data.n_rows(), data.n_cols(),
                task_name(data.task()));

    // Internal holdout for an honest post-search error report.
    const double holdout = std::stod(flag(argc, argv, "holdout", "0.2"));
    Rng rng(static_cast<std::uint64_t>(std::stoull(flag(argc, argv, "seed", "1"))));
    auto split = holdout_split(DataView(data), holdout, rng);
    Dataset train = materialize(split.train);

    AutoML automl;
    AutoMLOptions options;
    options.time_budget_seconds = std::stod(flag(argc, argv, "budget", "60"));
    options.metric = flag(argc, argv, "metric", "");
    options.estimator_list = parse_list(flag(argc, argv, "estimators", ""));
    options.seed = std::stoull(flag(argc, argv, "seed", "1"));
    automl.fit(train, options);

    ErrorMetric metric = options.metric.empty()
                             ? ErrorMetric::default_for(data.task())
                             : ErrorMetric::by_name(options.metric);
    double test_error = metric(automl.predict(split.test), split.test.labels());

    std::printf("trials: %zu, resampling: %s\n", automl.history().size(),
                resampling_name(automl.resampling_used()));
    std::printf("best learner: %s\n", automl.best_learner().c_str());
    std::printf("validation error (%s): %.6f\n", metric.name().c_str(),
                automl.best_error());
    std::printf("holdout error   (%s): %.6f\n", metric.name().c_str(), test_error);

    const std::string model_out = flag(argc, argv, "model-out", "");
    if (!model_out.empty()) {
      automl.save_best_model_file(model_out);
      std::printf("model written to %s\n", model_out.c_str());
    }
    const std::string history_out = flag(argc, argv, "history-out", "");
    if (!history_out.empty()) {
      std::ofstream out(history_out);
      FLAML_REQUIRE(out.good(), "cannot open '" << history_out << "'");
      write_history_csv(out, automl.history());
      std::printf("history written to %s\n", history_out.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
