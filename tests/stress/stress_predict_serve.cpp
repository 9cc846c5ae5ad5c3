// TSan stress for the prediction daemon (src/serve/predict_daemon.h):
// concurrent clients hammer predict() while a swapper thread hot-swaps
// between two model artifacts the whole time. The generation-coherence
// contract under fire: every reply must be computed WHOLLY by exactly one
// model generation — bit-identical to that generation's direct
// predict_many, never a mix, never a drop, never a crash. A second test
// drives concurrent drain()/stats() and shutdown-under-traffic, the
// teardown races a real daemon would hit.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "data/generators.h"
#include "learners/registry.h"
#include "serve/predict_daemon.h"

namespace flaml {
namespace {

using serve::CompiledModel;
using serve::PredictDaemon;
using serve::PredictDaemonOptions;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

CompiledModel train_compiled(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.task = Task::Regression;
  spec.n_rows = 150;
  spec.n_features = 5;
  spec.seed = seed;
  const Dataset data = make_synthetic(spec);
  for (const LearnerPtr& learner : builtin_learners()) {
    if (learner->name() != "lgbm") continue;
    Config config =
        learner->space(spec.task, data.n_rows()).initial_config();
    if (config.count("tree_num")) config["tree_num"] = 5;
    TrainContext ctx;
    ctx.train = DataView(data);
    ctx.seed = seed;
    ctx.n_threads = 1;
    std::unique_ptr<Model> model = learner->train(ctx, config);
    std::ostringstream saved;
    model->save(saved);
    std::istringstream in(saved.str());
    return serve::compile_saved(in);
  }
  throw InvalidArgument("lgbm learner missing");
}

std::vector<std::vector<float>> make_rows(std::size_t n_rows, std::size_t width,
                                          std::uint64_t seed) {
  std::vector<std::vector<float>> rows(n_rows, std::vector<float>(width));
  std::uint64_t state = seed;
  for (auto& row : rows) {
    for (float& v : row) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<float>((state >> 33) % 1000) / 100.0f - 5.0f;
    }
  }
  return rows;
}

Predictions direct_predict(const CompiledModel& model,
                           const std::vector<std::vector<float>>& rows) {
  const std::size_t width = rows[0].size();
  Dataset data(Task::Regression, std::vector<ColumnInfo>(width, ColumnInfo{}));
  for (std::size_t c = 0; c < width; ++c) {
    std::vector<float> column(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) column[r] = rows[r][c];
    data.set_column(c, std::move(column));
  }
  data.set_labels(std::vector<double>(rows.size(), 0.0));
  return model.predict_many(DataView(data), 1);
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return false;
  }
  return true;
}

TEST(StressPredictServe, SwapUnderTrafficKeepsEveryReplyGenerationCoherent) {
  const CompiledModel model_a = train_compiled(11);
  const CompiledModel model_b = train_compiled(22);
  const std::string path_a = tmp_path("stress_swap_a.bin");
  const std::string path_b = tmp_path("stress_swap_b.bin");
  model_a.save_file(path_a);
  model_b.save_file(path_b);

  PredictDaemonOptions options;
  options.max_batch_rows = 32;
  options.n_threads = 2;
  PredictDaemon daemon(options);
  daemon.load(path_a);  // generation 1 = A; every swap alternates B, A, ...

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 40;
  constexpr int kSwaps = 25;

  // Fixed request rows per client, references computed against BOTH models
  // up front — a reply claiming generation g must match ref[g % 2] exactly.
  std::vector<std::vector<std::vector<float>>> rows(kClients);
  std::vector<Predictions> ref_a(kClients), ref_b(kClients);
  for (int c = 0; c < kClients; ++c) {
    rows[c] = make_rows(1 + c % 4, model_a.n_features(), 100 + c);
    ref_a[c] = direct_predict(model_a, rows[c]);
    ref_b[c] = direct_predict(model_b, rows[c]);
    // The stress is vacuous if both models agree on these rows.
    ASSERT_FALSE(bits_equal(ref_a[c].values, ref_b[c].values)) << c;
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const PredictDaemon::Reply reply = daemon.predict(rows[c]);
        // Odd generations are A (load + even swap counts), even are B.
        const Predictions& expected =
            reply.generation % 2 == 1 ? ref_a[c] : ref_b[c];
        if (!bits_equal(reply.pred.values, expected.values)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread swapper([&] {
    for (int s = 0; s < kSwaps; ++s) {
      daemon.swap(s % 2 == 0 ? path_b : path_a);
      std::this_thread::yield();
    }
  });

  for (auto& t : clients) t.join();
  swapper.join();
  EXPECT_EQ(failures.load(), 0);

  daemon.drain();
  const JsonValue stats = daemon.stats();
  // No request was dropped: every send got a (correct) reply.
  EXPECT_EQ(stats.find("counters")->find("predict.requests")->number,
            static_cast<double>(kClients * kRequestsPerClient));
  EXPECT_EQ(stats.find("generation")->number,
            static_cast<double>(1 + kSwaps));
}

TEST(StressPredictServe, DrainStatsAndShutdownUnderTraffic) {
  const CompiledModel model = train_compiled(33);
  const std::string path = tmp_path("stress_teardown.bin");
  model.save_file(path);

  PredictDaemonOptions options;
  options.max_batch_rows = 16;
  auto daemon = std::make_unique<PredictDaemon>(options);
  daemon->load(path);

  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      const auto rows = make_rows(3, model.n_features(), 7 + c);
      while (!stop.load()) {
        try {
          daemon->predict(rows);
          served.fetch_add(1);
        } catch (const InvalidArgument&) {
          // "shutting down" is the only acceptable reject here.
          rejected.fetch_add(1);
          return;
        }
      }
    });
  }
  std::thread prober([&] {
    while (!stop.load()) {
      daemon->drain();
      (void)daemon->stats();
      std::this_thread::yield();
    }
  });

  // Let traffic flow, then tear the daemon down while clients are mid-loop.
  while (served.load() < 50) std::this_thread::yield();
  daemon->shutdown();
  stop.store(true);
  for (auto& t : clients) t.join();
  prober.join();
  EXPECT_GE(served.load(), 50);
  daemon.reset();  // double-shutdown via destructor must be safe
}

}  // namespace
}  // namespace flaml
