// Input generation: everything the program under test receives is made
// here from --seed and written into the run directory.
#include <charconv>
#include <cmath>
#include <limits>

#include "boosting/gbdt.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/split.h"
#include "data/suite.h"
#include "e2e.h"
#include "serve/compiled_model.h"

namespace e2e {

using namespace flaml;

namespace {

// The train/test split is fixed: the search's trial sequence must not
// depend on the seed (see write_search_csv).
constexpr std::uint64_t kSplitSeed = 0x5eed5;

template <typename T>
void append_number(std::string& out, T v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
}

}  // namespace

// A search's trial sequence depends on every bit its trainers see, so two
// seeds that drew different rows would run different trials and search_s
// would measure the luck of the draw, not the code (30-trial searches on
// three draws took 3.0, 7.8 and 4.8 s). The seed therefore varies what the
// search is invariant to: each numeric column is scaled by its own
// power of two (exact in binary floating point, and order-preserving, so
// quantile bins, tree splits and the linear learner's standardized inputs
// are bit-identical), and category tokens are respelled (the CSV reader
// numbers categories by first appearance, not by name). The CSV bytes and
// values differ per seed; the trial history does not.
SearchInputs write_search_csv(const Workload& workload, std::uint64_t seed,
                              bool smoke, const std::string& dir) {
  const SuiteEntry& entry = suite_entry(workload.search.suite);
  const Dataset data = make_suite_dataset(entry, smoke ? workload.search.smoke_row_scale : 1.0);
  Rng split_rng(kSplitSeed);
  const TrainTestSplit split = holdout_split(DataView(data), 0.2, split_rng);

  Rng rng(mix_seed(seed, 1));
  const std::size_t d = data.n_cols();
  std::vector<int> exponent(d, 0);
  std::vector<std::vector<std::uint64_t>> token(d);
  for (std::size_t c = 0; c < d; ++c) {
    const ColumnInfo& info = data.column_info(c);
    if (info.type == ColumnType::Numeric) {
      exponent[c] = static_cast<int>(rng.uniform_int(-6, 6));
    } else {
      // Distinct spellings: a per-column stem plus a shuffled code.
      token[c].resize(static_cast<std::size_t>(info.cardinality));
      for (std::size_t k = 0; k < token[c].size(); ++k) token[c][k] = k;
      rng.shuffle(token[c]);
      const std::uint64_t stem = static_cast<std::uint64_t>(rng.uniform_int(1, 9999));
      for (auto& t : token[c]) t += stem * 1000;
    }
  }

  SearchInputs inputs;
  inputs.n_train = split.train.n_rows();
  std::string out;
  for (std::size_t c = 0; c < d; ++c) {
    out += 'x';
    append_number(out, c);
    out += ',';
  }
  out += "label\n";
  for (const DataView* view : {&split.train, &split.test}) {
    for (std::size_t i = 0; i < view->n_rows(); ++i) {
      for (std::size_t c = 0; c < d; ++c) {
        const float v = view->value(i, c);
        if (!Dataset::is_missing(v)) {
          if (data.column_info(c).type == ColumnType::Numeric) {
            append_number(out, std::ldexp(v, exponent[c]));
          } else {
            out += "k";
            append_number(out, token[c][static_cast<std::size_t>(v)]);
          }
        }
        out += ',';
      }
      append_number(out, view->label(i));
      out += '\n';
    }
  }
  write_file(dir + "/search.csv", out);
  return inputs;
}

namespace {

// A seeded GBDT with the served shape: 300 trees x 32 leaves x 16 features.
serve::CompiledModel make_artifact(std::uint64_t seed, bool smoke,
                                   const std::string& path) {
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = smoke ? 600 : 4000;
  spec.n_features = 16;
  spec.nonlinearity = 0.5;
  spec.missing_fraction = 0.02;
  spec.seed = seed;
  const Dataset data = make_synthetic(spec);
  GBDTParams params;
  params.n_trees = smoke ? 40 : 300;
  params.max_leaves = 32;
  params.seed = seed;
  params.n_threads = 4;  // models are bit-identical at any thread count
  const serve::CompiledModel model =
      serve::compile(train_gbdt(DataView(data), nullptr, params));
  model.save_file(path);
  return model;
}

Dataset rows_dataset(const std::vector<std::vector<float>>& rows) {
  const std::size_t width = rows.front().size();
  Dataset data(Task::Regression, std::vector<ColumnInfo>(width, ColumnInfo{}));
  for (std::size_t c = 0; c < width; ++c) {
    std::vector<float> column(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) column[r] = rows[r][c];
    data.set_column(c, std::move(column));
  }
  data.set_labels(std::vector<double>(rows.size(), 0.0));
  return data;
}

}  // namespace

ServeInputs write_serve_inputs(const Workload& workload, std::uint64_t seed,
                               bool smoke, const std::string& dir) {
  const bool bulk = workload.traffic == Traffic::BulkSwap;
  ServeInputs inputs;
  serve::CompiledModel models[2];
  const int n_models = bulk ? 2 : 1;
  for (int m = 0; m < n_models; ++m) {
    inputs.artifact[m] = dir + (m == 0 ? "/model_a.bin" : "/model_b.bin");
    models[m] = make_artifact(mix_seed(seed, 10 + static_cast<std::uint64_t>(m)), smoke,
                              inputs.artifact[m]);
  }

  // Values on a 1/16 grid are exact in float and print short, so the
  // request bytes decode to exactly the rows the expectations were
  // computed from. About 1% of cells are null (missing).
  inputs.rows_per_request = bulk ? (smoke ? 256 : 2048) : 16;
  const std::size_t n_payloads = bulk ? (smoke ? 2 : 6) : (smoke ? 16 : 256);
  const std::size_t width = models[0].n_features();
  Rng rng(mix_seed(seed, 20));
  for (std::size_t p = 0; p < n_payloads; ++p) {
    std::vector<std::vector<float>> rows(inputs.rows_per_request,
                                         std::vector<float>(width));
    std::string line = "{\"op\":\"predict\",\"rows\":[";
    for (std::size_t r = 0; r < rows.size(); ++r) {
      line += r == 0 ? "[" : ",[";
      for (std::size_t c = 0; c < width; ++c) {
        if (c > 0) line += ',';
        if (rng.bernoulli(0.01)) {
          rows[r][c] = std::numeric_limits<float>::quiet_NaN();
          line += "null";
        } else {
          const double v = std::round(rng.normal() * 24.0) / 16.0;
          rows[r][c] = static_cast<float>(v);
          append_number(line, v);
        }
      }
      line += ']';
    }
    line += "]}";
    inputs.frames.push_back(rows_dataset(rows));
    for (int m = 0; m < n_models; ++m) {
      inputs.expect[m].push_back(
          models[m].predict_many(DataView(inputs.frames.back()), 1).values);
    }
    inputs.payloads.push_back(std::move(line));
  }
  return inputs;
}

}  // namespace e2e
