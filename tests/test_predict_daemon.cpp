// Differential suite for the prediction daemon (src/serve/predict_daemon.h)
// and its wire service: micro-batched serving must be BIT-identical to
// direct CompiledModel::predict_many for every batch size, thread count
// and request interleaving (whole requests are never split, and per-row
// computation is row-independent); hot swap must atomically move every
// subsequent reply to the new generation; corrupt artifacts and malformed
// requests must produce typed rejects that never take the daemon down.
#include "serve/predict_daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.h"
#include "data/csv.h"
#include "data/generators.h"
#include "learners/registry.h"
#include "observe/trace.h"
#include "observe/trace_check.h"
#include "serve/predict_service.h"

namespace flaml {
namespace {

using serve::CompiledModel;
using serve::PredictDaemon;
using serve::PredictDaemonOptions;
using serve::PredictService;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void expect_bits_equal(const Predictions& a, const Predictions& b,
                       const std::string& what) {
  ASSERT_EQ(static_cast<int>(a.task), static_cast<int>(b.task)) << what;
  ASSERT_EQ(a.n_classes, b.n_classes) << what;
  ASSERT_EQ(a.values.size(), b.values.size()) << what;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.values[i]),
              std::bit_cast<std::uint64_t>(b.values[i]))
        << what << ": value " << i << " differs (" << a.values[i] << " vs "
        << b.values[i] << ")";
  }
}

// Train one zoo learner and compile it, exactly as a deployment would:
// through the text save format.
CompiledModel train_compiled(const std::string& learner_name, Task task,
                             std::uint64_t seed) {
  SyntheticSpec spec;
  spec.task = task;
  spec.n_rows = 200;
  spec.n_features = 6;
  spec.n_classes = task == Task::MultiClassification ? 3 : 2;
  spec.missing_fraction = 0.1;
  spec.seed = seed;
  const Dataset data = make_synthetic(spec);
  for (const LearnerPtr& learner : builtin_learners()) {
    if (learner->name() != learner_name) continue;
    Config config =
        learner->space(task, data.n_rows()).initial_config();
    if (config.count("tree_num")) config["tree_num"] = 10;
    TrainContext ctx;
    ctx.train = DataView(data);
    ctx.seed = 7;
    ctx.n_threads = 1;
    std::unique_ptr<Model> model = learner->train(ctx, config);
    std::ostringstream saved;
    model->save(saved);
    std::istringstream in(saved.str());
    return serve::compile_saved(in);
  }
  throw InvalidArgument("no such learner: " + learner_name);
}

std::string write_artifact(const CompiledModel& model, const std::string& name) {
  const std::string path = tmp_path(name);
  model.save_file(path);
  return path;
}

// Deterministic request rows with the model's exact width, NaN cells
// included (seeded LCG, no global state).
std::vector<std::vector<float>> make_rows(std::size_t n_rows, std::size_t width,
                                          std::uint64_t seed) {
  std::vector<std::vector<float>> rows(n_rows, std::vector<float>(width));
  std::uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (auto& row : rows) {
    for (float& v : row) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const std::uint32_t bits = static_cast<std::uint32_t>(state >> 33);
      if (bits % 13 == 0) {
        v = std::numeric_limits<float>::quiet_NaN();
      } else {
        v = static_cast<float>(bits % 1000) / 100.0f - 5.0f;
      }
    }
  }
  return rows;
}

// Reference: the same rows scored directly, outside the daemon.
Dataset rows_to_dataset(const std::vector<std::vector<float>>& rows) {
  const std::size_t width = rows.empty() ? 0 : rows[0].size();
  Dataset data(Task::Regression, std::vector<ColumnInfo>(width, ColumnInfo{}));
  for (std::size_t c = 0; c < width; ++c) {
    std::vector<float> column(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) column[r] = rows[r][c];
    data.set_column(c, std::move(column));
  }
  data.set_labels(std::vector<double>(rows.size(), 0.0));
  return data;
}

Predictions direct_predict(const CompiledModel& model,
                           const std::vector<std::vector<float>>& rows) {
  const Dataset data = rows_to_dataset(rows);
  return model.predict_many(DataView(data), 1);
}

// A trace sink that parks the batcher inside the predict_batch event of its
// first batch until release(): requests sent meanwhile queue up behind it.
class BatchGate final : public observe::TraceSink {
 public:
  void emit(const observe::TraceEvent& event) override {
    if (event.type != "predict_batch") return;
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Polls `done` until it holds or 30 s pass.
template <typename Done>
bool wait_until_true(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// The headline contract: concurrent requests, batched however the batcher
// slices them, must come back bit-identical to direct predict_many. The
// batcher flushes as soon as it is free, so to make requests coalesce a
// first request holds it (BatchGate) while the 8 others queue; once all 8
// wait at once they must share batches whenever a batch may take more
// than one row.
void check_batched_differential(const CompiledModel& model,
                                const std::string& artifact,
                                std::size_t max_batch_rows, int n_threads,
                                const std::string& what) {
  auto gate = std::make_shared<BatchGate>();
  PredictDaemonOptions options;
  options.max_batch_rows = max_batch_rows;
  options.n_threads = n_threads;
  options.trace_sink = gate;
  PredictDaemon daemon(options);
  daemon.load(artifact);

  const std::size_t kRequests = 8;
  std::vector<std::vector<std::vector<float>>> requests;
  for (std::size_t i = 0; i < kRequests; ++i) {
    // Mixed sizes: single rows, mid-size, and one larger than most batches.
    const std::size_t n_rows = i % 3 == 0 ? 1 : (i % 3 == 1 ? 9 : 40);
    requests.push_back(make_rows(n_rows, model.n_features(), 1000 + i));
  }

  // The holder's reply is published before its batch's trace event, so
  // predict() returns while the batcher stays parked in the gate.
  const auto holder = make_rows(3, model.n_features(), 999);
  expect_bits_equal(direct_predict(model, holder), daemon.predict(holder).pred,
                    what + " holder");

  std::vector<PredictDaemon::Reply> replies(kRequests);
  std::vector<std::thread> clients;
  clients.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    clients.emplace_back(
        [&, i] { replies[i] = daemon.predict(requests[i]); });
  }
  const bool all_queued = wait_until_true([&] {
    return daemon.stats().at("queued_requests").number == kRequests;
  });
  gate->release();
  for (auto& t : clients) t.join();
  EXPECT_TRUE(all_queued) << what;

  std::size_t most_requests = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    expect_bits_equal(direct_predict(model, requests[i]), replies[i].pred,
                      what + " request " + std::to_string(i));
    EXPECT_EQ(replies[i].generation, 1u) << what;
    EXPECT_GE(replies[i].batch_rows, requests[i].size()) << what;
    most_requests = std::max(most_requests, replies[i].batch_requests);
  }
  if (max_batch_rows > 1) {
    EXPECT_GE(most_requests, 2u) << what << ": queued requests never coalesced";
  }
}

TEST(PredictDaemon, BatchedBitIdenticalAcrossWindowsAndThreads) {
  const CompiledModel model = train_compiled("lgbm", Task::Regression, 0xA1);
  const std::string artifact = write_artifact(model, "daemon_reg.bin");
  for (const std::size_t max_rows : {std::size_t{1}, std::size_t{16},
                                     std::size_t{64}, std::size_t{100000}}) {
    for (const int threads : {0, 1, 3}) {
      check_batched_differential(model, artifact, max_rows, threads,
                                 "max_batch_rows=" + std::to_string(max_rows) +
                                     " threads=" + std::to_string(threads));
    }
  }
}

TEST(PredictDaemon, ClassificationProbabilitiesBatchBitIdentical) {
  for (const Task task : {Task::BinaryClassification, Task::MultiClassification}) {
    const CompiledModel model = train_compiled("lgbm", task, 0xB2);
    const std::string artifact =
        write_artifact(model, std::string("daemon_cls_") + task_name(task) + ".bin");
    check_batched_differential(model, artifact, 64, 2,
                               std::string("cls ") + task_name(task));
  }
}

TEST(PredictDaemon, ForestAndLinearModelsServe) {
  for (const char* learner : {"rf", "lr"}) {
    const CompiledModel model =
        train_compiled(learner, Task::BinaryClassification, 0xC3);
    const std::string artifact =
        write_artifact(model, std::string("daemon_") + learner + ".bin");
    check_batched_differential(model, artifact, 32, 2, learner);
  }
}

// No batch window: a request that finds the batcher idle is served at
// once instead of waiting for company.
TEST(PredictDaemon, LoneRequestIsNotHeld) {
  const CompiledModel model = train_compiled("lgbm", Task::Regression, 0xA7);
  const std::string artifact = write_artifact(model, "daemon_lone.bin");
  PredictDaemon daemon;
  daemon.load(artifact);
  const auto rows = make_rows(4, model.n_features(), 77);
  std::vector<double> queue_ms;
  for (int i = 0; i < 50; ++i) {
    const PredictDaemon::Reply reply = daemon.predict(rows);
    EXPECT_EQ(reply.batch_requests, 1u);
    queue_ms.push_back(reply.queue_ms);
  }
  std::nth_element(queue_ms.begin(), queue_ms.begin() + 25, queue_ms.end());
  EXPECT_LT(queue_ms[25], 1.0);
}

TEST(PredictDaemon, SwapMovesEveryLaterReplyToTheNewGeneration) {
  const CompiledModel a = train_compiled("lgbm", Task::Regression, 1);
  const CompiledModel b = train_compiled("lgbm", Task::Regression, 2);
  const std::string path_a = write_artifact(a, "daemon_swap_a.bin");
  const std::string path_b = write_artifact(b, "daemon_swap_b.bin");

  PredictDaemon daemon;
  EXPECT_FALSE(daemon.loaded());
  const auto info_a = daemon.load(path_a);
  EXPECT_EQ(info_a.generation, 1u);
  EXPECT_EQ(info_a.n_features, a.n_features());

  const auto rows = make_rows(20, a.n_features(), 42);
  const auto before = daemon.predict(rows);
  EXPECT_EQ(before.generation, 1u);
  expect_bits_equal(direct_predict(a, rows), before.pred, "pre-swap");

  const auto info_b = daemon.swap(path_b);
  EXPECT_EQ(info_b.generation, 2u);
  const auto after = daemon.predict(rows);
  EXPECT_EQ(after.generation, 2u);
  expect_bits_equal(direct_predict(b, rows), after.pred, "post-swap");
}

TEST(PredictDaemon, PollReloadSwapsOnlyWhenTheArtifactChanged) {
  const CompiledModel a = train_compiled("lgbm", Task::Regression, 3);
  const CompiledModel b = train_compiled("lgbm", Task::Regression, 4);
  const std::string path = write_artifact(a, "daemon_reload.bin");

  PredictDaemon daemon;
  daemon.load(path);
  EXPECT_FALSE(daemon.poll_reload().has_value());  // unchanged -> no swap

  b.save_file(path);  // atomic rewrite, same path
  const auto swapped = daemon.poll_reload();
  ASSERT_TRUE(swapped.has_value());
  EXPECT_EQ(swapped->generation, 2u);

  const auto rows = make_rows(10, b.n_features(), 7);
  expect_bits_equal(direct_predict(b, rows), daemon.predict(rows).pred,
                    "after reload");
}

TEST(PredictDaemon, CorruptArtifactIsRejectedAndTheOldModelKeepsServing) {
  const CompiledModel model = train_compiled("lgbm", Task::Regression, 5);
  const std::string good = write_artifact(model, "daemon_good.bin");

  // Flip one payload byte: the checksum must catch it.
  std::ifstream in(good, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  bytes[bytes.size() - 3] ^= 0x40;
  const std::string bad = tmp_path("daemon_bad.bin");
  std::ofstream(bad, std::ios::binary) << bytes;

  PredictDaemon daemon;
  EXPECT_THROW(daemon.load(bad), SerializationError);
  EXPECT_FALSE(daemon.loaded());

  daemon.load(good);
  EXPECT_THROW(daemon.swap(bad), SerializationError);
  EXPECT_THROW(daemon.load(tmp_path("daemon_missing.bin")), std::exception);

  // Still generation 1, still serving the good model.
  EXPECT_EQ(daemon.info().generation, 1u);
  const auto rows = make_rows(5, model.n_features(), 9);
  expect_bits_equal(direct_predict(model, rows), daemon.predict(rows).pred,
                    "after rejected swap");
}

TEST(PredictDaemon, TypedRejectsForBadRequests) {
  const CompiledModel model = train_compiled("lgbm", Task::Regression, 6);
  const std::string artifact = write_artifact(model, "daemon_rejects.bin");

  PredictDaemon daemon;
  EXPECT_THROW(daemon.predict(make_rows(1, 6, 1)), InvalidArgument);  // no model
  EXPECT_THROW(daemon.swap(artifact), InvalidArgument);  // swap before load
  EXPECT_THROW(daemon.info(), InvalidArgument);

  daemon.load(artifact);
  EXPECT_THROW(daemon.predict({}), InvalidArgument);  // empty request
  EXPECT_THROW(daemon.predict(make_rows(2, model.n_features() + 1, 1)),
               InvalidArgument);  // width mismatch
  // The daemon survived all of it.
  EXPECT_EQ(daemon.predict(make_rows(2, model.n_features(), 1)).generation, 1u);
}

TEST(PredictDaemon, DrainAndStats) {
  const CompiledModel model = train_compiled("lgbm", Task::Regression, 7);
  const std::string artifact = write_artifact(model, "daemon_stats.bin");
  PredictDaemon daemon;
  daemon.load(artifact);
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back(
        [&] { daemon.predict(make_rows(3, model.n_features(), 11)); });
  }
  for (auto& t : clients) t.join();
  daemon.drain();
  const JsonValue stats = daemon.stats();
  EXPECT_EQ(stats.find("queued_requests")->number, 0.0);
  EXPECT_EQ(stats.find("generation")->number, 1.0);
  const JsonValue* counters = stats.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("predict.requests")->number, 4.0);
  EXPECT_EQ(counters->find("predict.rows")->number, 12.0);
  const JsonValue* histograms = stats.find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_NE(histograms->find("predict.latency_ms"), nullptr);
  EXPECT_NE(histograms->find("predict.batch_rows"), nullptr);
}

TEST(PredictDaemon, EmitsACheckableServingTrace) {
  const CompiledModel a = train_compiled("lgbm", Task::Regression, 8);
  const CompiledModel b = train_compiled("lgbm", Task::Regression, 9);
  const std::string path_a = write_artifact(a, "daemon_trace_a.bin");
  const std::string path_b = write_artifact(b, "daemon_trace_b.bin");

  auto sink = std::make_shared<observe::MemoryTraceSink>();
  {
    PredictDaemonOptions options;
    options.n_threads = 0;  // resolved to the hardware concurrency
    options.trace_sink = sink;
    PredictDaemon daemon(options);
    daemon.load(path_a);
    daemon.predict(make_rows(4, a.n_features(), 21));
    daemon.swap(path_b);
    daemon.predict(make_rows(4, b.n_features(), 22));
    daemon.drain();
  }
  const auto events = sink->snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().type, "predict_daemon_started");
  EXPECT_EQ(events.front().fields.at("n_threads").number,
            static_cast<double>(std::max(1u, std::thread::hardware_concurrency())));
  EXPECT_EQ(events.back().type, "predict_daemon_shutdown");
  const auto result = observe::check_trace_events(events);
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.by_type.at("predict_model_loaded"), 2u);
  EXPECT_EQ(result.by_type.at("predict_batch"), 2u);
}

// ---- wire service -------------------------------------------------------

class PredictServiceTest : public ::testing::Test {
 protected:
  PredictServiceTest()
      : model_(train_compiled("lgbm", Task::BinaryClassification, 0xD4)),
        artifact_(write_artifact(model_, "service_model.bin")),
        service_(daemon_) {}

  JsonValue request(const std::string& line) {
    return parse_json(service_.handle_line(line));
  }

  static bool ok(const JsonValue& response) {
    const JsonValue* flag = response.find("ok");
    return flag != nullptr && flag->is_bool() && flag->boolean;
  }

  CompiledModel model_;
  std::string artifact_;
  PredictDaemon daemon_;
  PredictService service_;
};

TEST_F(PredictServiceTest, LoadPredictRowsRoundTrip) {
  const JsonValue pong = request(R"({"op":"ping"})");
  EXPECT_TRUE(ok(pong));
  EXPECT_FALSE(pong.find("loaded")->boolean);

  const JsonValue loaded =
      request(R"({"op":"load","artifact":")" + artifact_ + R"("})");
  ASSERT_TRUE(ok(loaded)) << service_.handle_line(R"({"op":"ping"})");
  EXPECT_EQ(loaded.find("model")->find("generation")->number, 1.0);
  EXPECT_EQ(loaded.find("model")->find("kind")->str, "gbdt");

  // One row with a null (missing) cell; compare against the direct path
  // bit-for-bit — the JSON writer emits 17 significant digits.
  std::vector<std::vector<float>> rows =
      make_rows(3, model_.n_features(), 0xE5);
  rows[1][2] = std::numeric_limits<float>::quiet_NaN();
  std::string rows_json = "[";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows_json += r ? ",[" : "[";
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (c) rows_json += ",";
      if (std::isnan(rows[r][c])) {
        rows_json += "null";
      } else {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", rows[r][c]);
        rows_json += buf;
      }
    }
    rows_json += "]";
  }
  rows_json += "]";

  const JsonValue response =
      request(R"({"op":"predict","rows":)" + rows_json + "}");
  ASSERT_TRUE(ok(response));
  EXPECT_EQ(response.find("generation")->number, 1.0);
  const Predictions reference = direct_predict(model_, rows);
  const JsonValue* values = response.find("values");
  ASSERT_NE(values, nullptr);
  ASSERT_EQ(values->array.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (int c = 0; c < reference.n_classes; ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(values->array[r].array[c].number),
                std::bit_cast<std::uint64_t>(reference.prob(r, c)))
          << "row " << r << " class " << c;
    }
  }
  ASSERT_NE(response.find("classes"), nullptr);
  EXPECT_EQ(response.find("classes")->array.size(), rows.size());
}

TEST_F(PredictServiceTest, PredictFromUnlabeledCsvUsesEveryColumn) {
  ASSERT_TRUE(ok(request(R"({"op":"load","artifact":")" + artifact_ + R"("})")));
  const auto rows = make_rows(6, model_.n_features(), 0xF6);

  // An UNLABELED file: exactly n_features columns, all of them features.
  // Before the has_label fix the reader would claim the last column as a
  // label and predict on a silently narrowed matrix.
  const std::string csv = tmp_path("service_rows.csv");
  {
    std::ofstream out(csv);
    for (std::size_t c = 0; c < model_.n_features(); ++c) {
      out << (c ? ",f" : "f") << c;
    }
    out << "\n";
    for (const auto& row : rows) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c) out << ',';
        write_csv_value(out, row[c]);
      }
      out << '\n';
    }
  }

  const JsonValue response = request(R"({"op":"predict","csv":")" + csv + R"("})");
  ASSERT_TRUE(ok(response)) << dump_json_compact(response);
  const Predictions reference = direct_predict(model_, rows);
  const JsonValue* values = response.find("values");
  ASSERT_EQ(values->array.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(values->array[r].array[0].number),
        std::bit_cast<std::uint64_t>(reference.prob(r, 0)))
        << "row " << r;
  }
}

TEST_F(PredictServiceTest, TypedErrorsNeverTearDownTheStream) {
  EXPECT_FALSE(ok(request("this is not json")));
  EXPECT_FALSE(ok(request(R"({"op":"warp"})")));
  EXPECT_FALSE(ok(request(R"({"op":"predict","rows":[[1]]})")));  // no model
  EXPECT_FALSE(ok(request(R"({"op":"swap","artifact":"x"})")));   // before load
  EXPECT_FALSE(ok(request(R"({"op":"load"})")));                  // no artifact
  ASSERT_TRUE(ok(request(R"({"op":"load","artifact":")" + artifact_ + R"("})")));
  // rows and csv are mutually exclusive; rows must be arrays of numbers.
  EXPECT_FALSE(ok(request(R"({"op":"predict","rows":[[1]],"csv":"x"})")));
  EXPECT_FALSE(ok(request(R"({"op":"predict","rows":[["a"]]})")));
  EXPECT_FALSE(ok(request(R"({"op":"predict","rows":[]})")));
  // The service survived all of it.
  EXPECT_TRUE(ok(request(R"({"op":"stats"})")));
  const JsonValue bye = request(R"({"op":"shutdown"})");
  EXPECT_TRUE(ok(bye));
  EXPECT_TRUE(service_.shutdown_requested());
}

TEST_F(PredictServiceTest, DrainAndStatsOps) {
  ASSERT_TRUE(ok(request(R"({"op":"load","artifact":")" + artifact_ + R"("})")));
  ASSERT_TRUE(ok(request(R"({"op":"predict","rows":[[1,2,3,4,5,6]]})")));
  EXPECT_TRUE(ok(request(R"({"op":"drain"})")));
  const JsonValue stats = request(R"({"op":"stats"})");
  ASSERT_TRUE(ok(stats));
  EXPECT_EQ(stats.find("stats")->find("generation")->number, 1.0);
  const JsonValue reload = request(R"({"op":"reload"})");
  ASSERT_TRUE(ok(reload));
  EXPECT_FALSE(reload.find("swapped")->boolean);
}

}  // namespace
}  // namespace flaml
