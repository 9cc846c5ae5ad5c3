#include "serve/predict_daemon.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/sealed_file.h"
#include "common/thread_pool.h"
#include "resume/serial_util.h"
#include "serve/artifact.h"

namespace flaml::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

const char* kind_name(CompiledKind kind) {
  switch (kind) {
    case CompiledKind::Gbdt: return "gbdt";
    case CompiledKind::Forest: return "forest";
    case CompiledKind::Linear: return "linear";
  }
  return "unknown";
}

}  // namespace

PredictDaemon::PredictDaemon(PredictDaemonOptions options)
    : options_(std::move(options)), tracer_(options_.trace_sink) {
  FLAML_REQUIRE(options_.max_batch_rows >= 1,
                "predict daemon needs max_batch_rows >= 1");
  FLAML_REQUIRE(options_.max_batch_delay_ms >= 0.0,
                "predict daemon needs max_batch_delay_ms >= 0");
  if (tracer_) {
    JsonValue fields = JsonValue::make_object();
    fields.set("max_batch_rows", resume::json_size(options_.max_batch_rows));
    fields.set("max_batch_delay_ms",
               JsonValue::make_number(options_.max_batch_delay_ms));
    fields.set("n_threads", JsonValue::make_number(options_.n_threads));
    tracer_.emit("predict_daemon_started", std::move(fields));
  }
  batcher_ = std::thread([this] { batcher_loop(); });
}

PredictDaemon::~PredictDaemon() { shutdown(); }

PredictDaemon::ModelInfo PredictDaemon::install_locked(
    std::shared_ptr<const CompiledModel> model, const std::string& source,
    std::uint64_t fingerprint) {
  model_ = std::move(model);
  ++generation_;
  artifact_path_ = source;
  artifact_fingerprint_ = fingerprint;
  metrics_.add("predict.model_loads");
  metrics_.set("predict.generation", static_cast<double>(generation_));
  return info_locked();
}

PredictDaemon::ModelInfo PredictDaemon::info_locked() const {
  FLAML_REQUIRE(model_ != nullptr, "no model loaded (use the load op first)");
  ModelInfo info;
  info.generation = generation_;
  info.kind = model_->kind();
  info.task = model_->task();
  info.n_classes = model_->n_classes();
  info.n_features = model_->n_features();
  info.n_trees = model_->n_trees();
  info.source = artifact_path_;
  return info;
}

PredictDaemon::ModelInfo PredictDaemon::load(const std::string& artifact_path) {
  const std::string payload = read_sealed_file(artifact_path, kArtifactFormat);
  return install(artifact_path, payload, content_fingerprint(payload));
}

PredictDaemon::ModelInfo PredictDaemon::install(const std::string& artifact_path,
                                                const std::string& payload,
                                                std::uint64_t fingerprint) {
  // The model and the reload fingerprint come from the same bytes, read
  // once, so they describe one snapshot even if the file is rewritten
  // concurrently. Throws (SerializationError) before touching the hot slot.
  auto model =
      std::make_shared<const CompiledModel>(CompiledModel::deserialize(payload));

  ModelInfo info;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    info = install_locked(std::move(model), artifact_path, fingerprint);
  }
  if (tracer_) {
    JsonValue fields = JsonValue::make_object();
    fields.set("generation", resume::json_size(static_cast<std::size_t>(info.generation)));
    fields.set("kind", JsonValue::make_string(kind_name(info.kind)));
    fields.set("task", JsonValue::make_string(task_name(info.task)));
    fields.set("n_classes", JsonValue::make_number(info.n_classes));
    fields.set("n_features", resume::json_size(info.n_features));
    fields.set("n_trees", resume::json_size(info.n_trees));
    fields.set("source", JsonValue::make_string(info.source));
    tracer_.emit("predict_model_loaded", std::move(fields));
  }
  return info;
}

PredictDaemon::ModelInfo PredictDaemon::swap(const std::string& artifact_path) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FLAML_REQUIRE(model_ != nullptr,
                  "swap needs a serving model; use the load op first");
  }
  ModelInfo info = load(artifact_path);
  metrics_.add("predict.swaps");
  return info;
}

std::optional<PredictDaemon::ModelInfo> PredictDaemon::poll_reload() {
  std::string path;
  std::uint64_t last = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FLAML_REQUIRE(model_ != nullptr,
                  "reload needs a serving model; use the load op first");
    path = artifact_path_;
    last = artifact_fingerprint_;
  }
  const std::string payload = read_sealed_file(path, kArtifactFormat);
  const std::uint64_t fingerprint = content_fingerprint(payload);
  if (fingerprint == last) return std::nullopt;
  ModelInfo info = install(path, payload, fingerprint);
  metrics_.add("predict.swaps");
  return info;
}

bool PredictDaemon::loaded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_ != nullptr;
}

PredictDaemon::ModelInfo PredictDaemon::info() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return info_locked();
}

PredictDaemon::Reply PredictDaemon::predict(
    const std::vector<std::vector<float>>& rows) {
  FLAML_REQUIRE(!rows.empty(), "predict needs at least one row");
  auto pending = std::make_shared<Pending>();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FLAML_REQUIRE(!stop_, "predict daemon is shutting down");
    FLAML_REQUIRE(model_ != nullptr, "no model loaded (use the load op first)");
    pending->width = model_->n_features();
  }
  pending->n_rows = rows.size();
  pending->values.reserve(rows.size() * pending->width);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    FLAML_REQUIRE(rows[r].size() == pending->width,
                  "predict row " << r << " has " << rows[r].size()
                                 << " values, model wants " << pending->width);
    pending->values.insert(pending->values.end(), rows[r].begin(),
                           rows[r].end());
  }
  pending->enqueued = Clock::now();

  std::unique_lock<std::mutex> lock(mutex_);
  FLAML_REQUIRE(!stop_, "predict daemon is shutting down");
  queue_.push_back(pending);
  queued_rows_ += pending->n_rows;
  cv_work_.notify_one();
  cv_done_.wait(lock, [&] { return pending->done; });
  if (pending->error) std::rethrow_exception(pending->error);
  return std::move(pending->reply);
}

void PredictDaemon::drain() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return queue_.empty() && !in_flight_; });
  }
  if (tracer_) tracer_.emit("predict_daemon_drained");
}

void PredictDaemon::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      // Second call: the batcher is already joined (or being joined by the
      // first caller); nothing left to do.
      if (!batcher_.joinable()) return;
    }
    stop_ = true;
    cv_work_.notify_all();
  }
  if (batcher_.joinable()) batcher_.join();
  // The batcher exited; fail whatever it left behind.
  std::deque<std::shared_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    orphans.swap(queue_);
    queued_rows_ = 0;
    for (auto& pending : orphans) {
      pending->error = std::make_exception_ptr(
          InvalidArgument("predict daemon is shutting down"));
      pending->done = true;
    }
    cv_done_.notify_all();
  }
  if (tracer_) tracer_.emit("predict_daemon_shutdown");
}

JsonValue PredictDaemon::stats() const {
  JsonValue out = metrics_.to_json();
  std::lock_guard<std::mutex> lock(mutex_);
  out.set("loaded", JsonValue::make_bool(model_ != nullptr));
  out.set("generation",
          resume::json_size(static_cast<std::size_t>(generation_)));
  out.set("queued_requests", resume::json_size(queue_.size()));
  out.set("queued_rows", resume::json_size(queued_rows_));
  return out;
}

void PredictDaemon::batcher_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_work_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;

    // The window: flush when enough rows accumulated, when the oldest
    // request has waited long enough, or on shutdown.
    const auto deadline =
        queue_.front()->enqueued +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(options_.max_batch_delay_ms));
    cv_work_.wait_until(lock, deadline, [&] {
      return stop_ || queued_rows_ >= options_.max_batch_rows;
    });
    if (stop_) return;

    // Take WHOLE requests from the front until the batch is full. The first
    // request is always taken, so an oversized request forms its own batch.
    std::vector<std::shared_ptr<Pending>> batch;
    std::size_t batch_rows = 0;
    while (!queue_.empty() &&
           (batch.empty() || batch_rows < options_.max_batch_rows)) {
      batch.push_back(queue_.front());
      queue_.pop_front();
      batch_rows += batch.back()->n_rows;
      queued_rows_ -= batch.back()->n_rows;
    }

    // Capture the serving snapshot ONCE: this whole batch — and therefore
    // every reply in it — is computed by exactly this generation, even if a
    // swap lands while it runs.
    std::shared_ptr<const CompiledModel> model = model_;
    const std::uint64_t generation = generation_;
    in_flight_ = true;
    lock.unlock();

    serve_batch(std::move(batch), std::move(model), generation);

    lock.lock();
    in_flight_ = false;
    cv_done_.notify_all();
  }
}

void PredictDaemon::serve_batch(std::vector<std::shared_ptr<Pending>> batch,
                                std::shared_ptr<const CompiledModel> model,
                                std::uint64_t generation) {
  const auto flush_time = Clock::now();
  const std::size_t width = model->n_features();

  // A request queued just before an incompatible swap carries the OLD
  // width; fail it with a typed error instead of feeding the new model a
  // misshapen matrix.
  std::vector<std::shared_ptr<Pending>> serving;
  for (auto& pending : batch) {
    if (pending->width != width) {
      pending->error = std::make_exception_ptr(InvalidArgument(
          "model was swapped to " + std::to_string(width) +
          " features while this " + std::to_string(pending->width) +
          "-feature request was queued; retry"));
      continue;
    }
    serving.push_back(pending);
  }

  std::size_t total_rows = 0;
  for (const auto& pending : serving) total_rows += pending->n_rows;

  Predictions all;
  std::exception_ptr batch_error;
  if (total_rows > 0) {
    // One column-major container for the whole batch. Task/labels are
    // irrelevant to predict_many (it only reads feature columns); the
    // regression container accepts any label vector.
    Dataset data(Task::Regression,
                 std::vector<ColumnInfo>(width, ColumnInfo{}));
    for (std::size_t c = 0; c < width; ++c) {
      std::vector<float> column(total_rows);
      std::size_t at = 0;
      for (const auto& pending : serving) {
        for (std::size_t r = 0; r < pending->n_rows; ++r) {
          column[at++] = pending->values[r * width + c];
        }
      }
      data.set_column(c, std::move(column));
    }
    data.set_labels(std::vector<double>(total_rows, 0.0));
    try {
      all = model->predict_many(DataView(data), options_.n_threads);
    } catch (...) {
      batch_error = std::current_exception();
    }
  }

  const auto done_time = Clock::now();
  const std::size_t out_width =
      is_classification(all.task) ? static_cast<std::size_t>(all.n_classes) : 1;

  // Scatter the batch result back per request, then publish under the lock.
  std::size_t at = 0;
  for (auto& pending : serving) {
    if (batch_error) {
      pending->error = batch_error;
      continue;
    }
    Reply& reply = pending->reply;
    reply.pred.task = all.task;
    reply.pred.n_classes = all.n_classes;
    reply.pred.values.assign(
        all.values.begin() + static_cast<std::ptrdiff_t>(at * out_width),
        all.values.begin() +
            static_cast<std::ptrdiff_t>((at + pending->n_rows) * out_width));
    at += pending->n_rows;
    reply.generation = generation;
    reply.batch_rows = total_rows;
    reply.batch_requests = serving.size();
    reply.queue_ms = ms_between(pending->enqueued, flush_time);
    metrics_.observe("predict.queue_ms", reply.queue_ms);
    metrics_.observe("predict.latency_ms",
                     ms_between(pending->enqueued, done_time));
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& pending : batch) pending->done = true;
    cv_done_.notify_all();
  }

  metrics_.add("predict.requests", static_cast<double>(batch.size()));
  metrics_.add("predict.rows", static_cast<double>(total_rows));
  metrics_.add("predict.batches");
  metrics_.observe("predict.batch_rows", static_cast<double>(total_rows));
  metrics_.observe("predict.batch_requests",
                   static_cast<double>(serving.size()));
  if (tracer_) {
    JsonValue fields = JsonValue::make_object();
    fields.set("generation",
               resume::json_size(static_cast<std::size_t>(generation)));
    fields.set("requests", resume::json_size(serving.size()));
    fields.set("rows", resume::json_size(total_rows));
    fields.set("predict_ms",
               JsonValue::make_number(ms_between(flush_time, done_time)));
    tracer_.emit("predict_batch", std::move(fields));
  }
}

}  // namespace flaml::serve
