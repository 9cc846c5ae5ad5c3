// flaml_predict — apply a model trained by flaml_train to a CSV file.
//
// Usage:
//   flaml_predict --data=test.csv --model=model.txt --task=binary \
//                 [--label=<column>] [--no-label] [--out=predictions.csv] \
//                 [--metric=...]
//
// The test CSV must have the same feature columns (same order and types) as
// the training CSV. With a label column present (the default; named by
// --label, else the last column), the error metric is reported on stderr.
// Prediction-only files carry NO label column: pass --no-label so every
// column is read as a feature — without it the reader would silently claim
// the last feature as a label and score nonsense against it. Predictions go
// to --out (or stdout) in the round-trip decimal form (write_csv_value), so
// reading them back yields the exact same doubles.
//
// Caveat: string-valued categorical columns are dictionary-encoded per file
// (codes by first appearance), so train and test files must either use the
// same category order or pre-encoded integer codes.

#include <cstdio>
#include <fstream>
#include <iostream>

#include "automl/automl.h"
#include "data/csv.h"
#include "flags.h"

using namespace flaml;

namespace {

Task parse_task(const std::string& name) {
  if (name == "binary") return Task::BinaryClassification;
  if (name == "multiclass") return Task::MultiClassification;
  if (name == "regression") return Task::Regression;
  throw InvalidArgument("unknown task '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string data_path = flag(argc, argv, "data", "");
    const std::string model_path = flag(argc, argv, "model", "");
    if (data_path.empty() || model_path.empty()) {
      std::fprintf(stderr,
                   "usage: flaml_predict --data=test.csv --model=model.txt "
                   "--task=binary [--label=col] [--no-label] [--out=pred.csv] "
                   "[--metric=...]\n");
      return 2;
    }

    CsvOptions csv_options;
    csv_options.task = parse_task(flag(argc, argv, "task", "binary"));
    csv_options.label_column = flag(argc, argv, "label", "");
    csv_options.has_label = flag(argc, argv, "no-label", "") != "1";
    FLAML_REQUIRE(csv_options.has_label || csv_options.label_column.empty(),
                  "--label and --no-label are mutually exclusive");
    Dataset data = read_csv_file(data_path, csv_options);

    std::unique_ptr<Model> model = load_automl_model_file(model_path);
    Predictions pred = model->predict(DataView(data));

    const std::string metric_name = flag(argc, argv, "metric", "");
    if (csv_options.has_label) {
      ErrorMetric metric = metric_name.empty()
                               ? ErrorMetric::default_for(data.task())
                               : ErrorMetric::by_name(metric_name);
      std::fprintf(stderr, "%s error on %zu rows: %.6f\n", metric.name().c_str(),
                   pred.n_rows(), metric(pred, data.labels()));
    } else {
      FLAML_REQUIRE(metric_name.empty(),
                    "--metric needs labels; drop --no-label to score");
      std::fprintf(stderr, "predicted %zu unlabeled rows\n", pred.n_rows());
    }

    std::ofstream file_out;
    const std::string out_path = flag(argc, argv, "out", "");
    std::ostream& out = out_path.empty() ? std::cout : file_out;
    if (!out_path.empty()) {
      file_out.open(out_path);
      FLAML_REQUIRE(file_out.good(), "cannot open '" << out_path << "'");
    }
    // Output format follows the MODEL's task (pred.task), not the CSV
    // reader's: an unlabeled file always reads as a regression container.
    if (is_classification(pred.task)) {
      for (int c = 0; c < pred.n_classes; ++c) {
        out << (c ? "," : "") << "p_class" << c;
      }
      out << ",predicted_class\n";
      for (std::size_t i = 0; i < pred.n_rows(); ++i) {
        int best = 0;
        for (int c = 0; c < pred.n_classes; ++c) {
          if (c) out << ',';
          write_csv_value(out, pred.prob(i, c));
          if (pred.prob(i, c) > pred.prob(i, best)) best = c;
        }
        out << ',' << best << '\n';
      }
    } else {
      out << "prediction\n";
      for (double v : pred.values) {
        write_csv_value(out, v);
        out << '\n';
      }
    }
    if (!out_path.empty()) {
      std::fprintf(stderr, "predictions written to %s\n", out_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
