// Line-delimited JSON wire protocol over the search daemon.
//
// One request per line, one response per line (compact JSON, both
// directions). Every response carries "ok": true|false; failures add
// "error" with a human-readable message and never tear down the stream.
// Requests:
//
//   {"op":"ping"}
//   {"op":"submit", "csv":PATH, "task":"binary|multiclass|regression",
//    ["label":COLUMN,] ...}                      — or —
//   {"op":"submit", "synthetic":{"task":...,["rows":N,"features":N,
//    "classes":N,"seed":N]}, ...}
//      common submit fields (all optional): "budget_seconds", "metric",
//      "estimators":[names], "max_iterations", "seed", "name", "priority",
//      "quantum_trials", "deadline_seconds"      -> {"ok":true,"id":N}
//   {"op":"status","id":N}                       -> {"ok":true,"job":{...}}
//   {"op":"list"}                                -> {"ok":true,"jobs":[...]}
//   {"op":"cancel","id":N}                       -> {"ok":true,"cancelled":B}
//   {"op":"preempt","id":N}                      -> {"ok":true,"preempted":B}
//   {"op":"result","id":N}                       -> {"ok":true,"result":{...}}
//   {"op":"events","id":N,["since":SEQ]}         -> {"ok":true,"events":[...],
//                                                    "first":S,"next":S,
//                                                    "dropped":N}
//   {"op":"wait","id":N} / {"op":"wait_all"}     — blocks, then status/list
//   {"op":"shutdown"}                            — cancels everything
//
// Job ids are dense and deterministic (1, 2, 3, ... in submission order),
// so scripted clients — the CI smoke test — need no response parsing
// beyond grep. "events" returns the job's retained trace window in the
// src/observe JSONL schema (each element additionally carries "seq").
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "server/daemon.h"
#include "server/dataset_cache.h"

namespace flaml::server {

class SearchService {
 public:
  explicit SearchService(SearchDaemon& daemon);

  // Test seam, applied to every submit after the request is decoded: inject
  // extra learners (stubs) or override options (deterministic cost models)
  // without widening the wire protocol.
  using Customize =
      std::function<void(AutoMLOptions& options,
                         std::vector<LearnerPtr>& extra_learners)>;
  void set_customize(Customize customize) { customize_ = std::move(customize); }

  // Handle one decoded request; never throws (errors become
  // {"ok":false,"error":...} responses). Thread-safe: the socket transport
  // (common/line_server.h) calls it from one thread per connection.
  JsonValue handle(const JsonValue& request);

  // Handle one raw request line (parse errors become error responses too).
  std::string handle_line(const std::string& line);

  // True once a shutdown op was handled (the daemon is already down).
  bool shutdown_requested() const { return shutdown_requested_.load(); }

  // The dataset cache (bounded, content-fingerprinted — dataset_cache.h):
  // N jobs over the same data share one immutable Dataset, and a CSV file
  // rewritten between submits is re-parsed instead of served stale.
  DatasetCache& dataset_cache() { return dataset_cache_; }

 private:
  JsonValue dispatch(const JsonValue& request);
  JsonValue op_submit(const JsonValue& request);
  std::shared_ptr<const Dataset> load_dataset(const JsonValue& request);

  SearchDaemon* daemon_;
  Customize customize_;
  DatasetCache dataset_cache_;
  std::atomic<bool> shutdown_requested_{false};
};

}  // namespace flaml::server
