// Long-running prediction daemon over compiled artifacts (ROADMAP:
// "serving path" — the deployment counterpart of the search daemon).
//
// A PredictDaemon owns one hot CompiledModel slot plus a single batcher
// thread. Callers (one per client connection) enqueue whole requests with
// predict(); the batcher accumulates queued requests until either
// `max_batch_rows` rows are waiting or the OLDEST queued request has waited
// `max_batch_delay_ms`, then serves the accumulated requests as ONE
// row-sharded CompiledModel::predict_many call over the shared ThreadPool
// and scatters the per-row results back to each caller. Because
// predict_many computes every row independently and in row order
// (compiled_model.h determinism contract), batching requests together is
// BIT-identical to predicting each request alone — at every batch window,
// thread count and request interleaving. tests/test_predict_daemon.cpp
// pins that equality.
//
// Hot swap: load()/swap()/poll_reload() atomically replace the
// shared_ptr<const CompiledModel> under the queue mutex and bump a
// generation counter. A batch captures (model, generation) once, before it
// predicts, so every reply is computed WHOLLY by exactly one generation and
// says which (Reply::generation) — in-flight batches finish on the old
// model, queued requests behind them see the new one. No request is ever
// split across models. tests/stress/stress_predict_serve.cpp hammers this
// under TSan: concurrent clients + a swapper thread, every reply must be
// bit-identical to exactly the generation it claims.
//
// Requests are never split across batches either: a request larger than
// `max_batch_rows` simply forms an oversized batch of its own. A request
// whose row width does not match the CURRENT model's n_features() (e.g. it
// was queued just before an incompatible swap) fails with a typed
// InvalidArgument instead of predicting garbage.
//
// Observability: a MetricsRegistry tracks request/row/batch/swap counters,
// per-request latency and queue-time histograms and batch-occupancy
// histograms (stats()); with a trace sink attached the daemon emits
// predict_daemon_started / predict_model_loaded / predict_batch /
// predict_daemon_drained / predict_daemon_shutdown events in the
// src/observe schema (trace_check validates them in serving mode).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "observe/metrics.h"
#include "observe/trace.h"
#include "serve/compiled_model.h"

namespace flaml::serve {

struct PredictDaemonOptions {
  // Flush the pending queue once this many rows are waiting...
  std::size_t max_batch_rows = 256;
  // ...or once the oldest queued request has waited this long.
  double max_batch_delay_ms = 2.0;
  // Threads per predict_many call (0 = hardware concurrency).
  int n_threads = 0;
  // Optional structured trace sink (predict_* events).
  observe::TraceSinkPtr trace_sink;
};

class PredictDaemon {
 public:
  explicit PredictDaemon(PredictDaemonOptions options = {});
  ~PredictDaemon();

  PredictDaemon(const PredictDaemon&) = delete;
  PredictDaemon& operator=(const PredictDaemon&) = delete;

  struct ModelInfo {
    std::uint64_t generation = 0;
    CompiledKind kind = CompiledKind::Gbdt;
    Task task = Task::Regression;
    int n_classes = 0;
    std::size_t n_features = 0;
    std::size_t n_trees = 0;
    std::string source;  // artifact path the model came from
  };

  struct Reply {
    Predictions pred;
    // Generation of the model that computed this reply — all of it.
    std::uint64_t generation = 0;
    // Occupancy of the batch that served this request.
    std::size_t batch_rows = 0;
    std::size_t batch_requests = 0;
    // Time the request spent queued before its batch flushed.
    double queue_ms = 0.0;
  };

  // Load (or replace) the hot model from a `flaml-compiled v1` artifact
  // file. Reads + checksums the bytes once, validates structurally, then
  // swaps atomically (generation + 1). Throws SerializationError on a
  // damaged artifact — the current model, if any, stays serving.
  ModelInfo load(const std::string& artifact_path);

  // Same as load() but requires a model to already be serving — the
  // explicit zero-downtime replacement op.
  ModelInfo swap(const std::string& artifact_path);

  // Artifact-path watch: re-read the artifact load()/swap() last installed
  // and swap only when its payload fingerprint changed. Returns the new
  // info after a swap, nullopt when the file is unchanged.
  std::optional<ModelInfo> poll_reload();

  bool loaded() const;
  ModelInfo info() const;  // throws InvalidArgument when nothing is loaded

  // Blocking batched prediction. Every row must have exactly
  // info().n_features values (NaN = missing). Throws InvalidArgument when
  // no model is loaded, on a width mismatch, or after shutdown began.
  Reply predict(const std::vector<std::vector<float>>& rows);

  // Block until every queued request has been answered.
  void drain();

  // Stop the batcher; queued requests fail with a typed error. Idempotent;
  // the destructor calls it.
  void shutdown();

  const observe::MetricsRegistry& metrics() const { return metrics_; }
  JsonValue stats() const;

 private:
  struct Pending {
    std::vector<float> values;  // row-major n_rows × width
    std::size_t n_rows = 0;
    std::size_t width = 0;
    std::chrono::steady_clock::time_point enqueued;
    bool done = false;
    std::exception_ptr error;
    Reply reply;
  };

  void batcher_loop();
  void serve_batch(std::vector<std::shared_ptr<Pending>> batch,
                   std::shared_ptr<const CompiledModel> model,
                   std::uint64_t generation);
  // Deserialize a verified artifact payload read from `artifact_path` and
  // make it the serving model.
  ModelInfo install(const std::string& artifact_path, const std::string& payload,
                    std::uint64_t fingerprint);
  ModelInfo install_locked(std::shared_ptr<const CompiledModel> model,
                           const std::string& source,
                           std::uint64_t fingerprint);
  ModelInfo info_locked() const;

  const PredictDaemonOptions options_;
  observe::MetricsRegistry metrics_;
  observe::Tracer tracer_;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;  // wakes the batcher
  std::condition_variable cv_done_;  // wakes predict()/drain() waiters
  std::deque<std::shared_ptr<Pending>> queue_;
  std::size_t queued_rows_ = 0;
  bool in_flight_ = false;  // a batch is being served right now
  bool stop_ = false;

  std::shared_ptr<const CompiledModel> model_;
  std::uint64_t generation_ = 0;
  std::string artifact_path_;        // source of the current model
  std::uint64_t artifact_fingerprint_ = 0;

  std::thread batcher_;  // constructed last, joined by shutdown()
};

}  // namespace flaml::serve
