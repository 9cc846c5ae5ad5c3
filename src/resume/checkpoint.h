// Crash-safe search checkpointing (the resume subsystem).
//
// A SearchCheckpoint is the COMPLETE state of an AutoML search at a trial
// boundary: per-learner ECI bookkeeping and FLOW2 walk state, current
// sample sizes, the controller RNG stream, elapsed-budget accounting, the
// full trial history, the trial-runner counter, the metrics registry and —
// for post-fit snapshots — the best model blob (the save_best_model
// format). The contract, proven by tests/stress/stress_resume.cpp: a search
// killed at ANY trial boundary and resumed from its last checkpoint
// produces the identical trial history, best error and run-summary totals
// as the never-interrupted run, serial and parallel.
//
// On disk a checkpoint is a sealed file (src/common/sealed_file.h: the
// magic/version/size/checksum header, the durable atomic write and the
// bounded reader) holding compact JSON. Version 4: v2 added the per-learner
// eci last_ok_cost field, v3 the racing envelope state and per-pending-trial
// racing plan snapshots, v4 metrics histograms as bucket counts instead of
// raw samples. There is no silent migration: older files are rejected.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "automl/history.h"
#include "common/json.h"
#include "common/sealed_file.h"
#include "resume/serial_util.h"

namespace flaml::resume {

inline constexpr int kCheckpointVersion = 4;
inline constexpr SealedFormat kCheckpointFormat{"flaml-checkpoint", kCheckpointVersion,
                                                1ull << 31};

// Binary blob <-> lowercase hex (model blobs inside the JSON payload).
std::string encode_blob(const std::string& bytes);
std::string decode_blob(const std::string& hex);  // throws SerializationError

// A trial that was launched but not yet committed when the checkpoint was
// written (parallel search keeps up to n_parallel of these in flight).
// Resume re-runs exactly these — same config, sample size and seed salt, in
// the original launch order — before proposing anything new, which is what
// stitches the controller's decision sequence back together.
struct PendingTrial {
  std::string learner;
  std::uint64_t trial_index = 0;  // per-learner, 1-based
  std::uint64_t seed_salt = 0;    // never 0 (0 = runner-counter domain)
  bool grow_sample = false;
  std::size_t sample_size = 0;
  ConfigMap config;
  // Launch-time racing plan snapshot (src/automl/racing.h): the envelope
  // this trial was racing against when it launched. Re-running the trial
  // against TODAY'S monitor state would race a newer envelope and could
  // kill (or spare) it differently than the uninterrupted run — the
  // snapshot is what makes racing-on resume byte-identical.
  bool racing_enabled = false;
  std::vector<double> envelope;  // running-min; empty = no incumbent yet
};

struct LearnerCheckpoint {
  std::string name;
  JsonValue eci;    // EciState::to_json()
  JsonValue tuner;  // Flow2::to_json()
  std::size_t sample_size = 0;
  double best_error = std::numeric_limits<double>::infinity();
  ConfigMap best_config;
  std::uint64_t n_proposed = 0;
};

struct SearchCheckpoint {
  int version = kCheckpointVersion;

  // Compatibility fingerprint: resume_from rejects a checkpoint whose task,
  // metric, seed, resampling or learner lineup differs from the options it
  // is resumed with (the search would silently diverge otherwise).
  std::string task;
  std::string metric;
  std::uint64_t seed = 1;
  std::string resampling;

  // Controller state.
  std::uint64_t iteration = 0;  // committed trials == history.size()
  bool calibrated = false;
  double elapsed_seconds = 0.0;  // budget already spent before the resume
  JsonValue rng;                 // controller stream (json_rng)

  // Global best.
  std::string best_learner;  // empty = no successful trial yet
  double best_error = std::numeric_limits<double>::infinity();
  std::size_t best_sample_size = 0;
  ConfigMap best_config;

  std::vector<LearnerCheckpoint> learners;
  std::vector<PendingTrial> pending;
  TrialHistory history;
  JsonValue runner;   // TrialRunner::to_json()
  JsonValue metrics;  // MetricsRegistry::state_to_json()
  // RacingMonitor::to_json() ({"envelopes": [...]}). Held as raw JSON:
  // flaml_resume links only flaml_common, so the semantic validation
  // (monotone envelopes, finite losses) runs in RacingMonitor::from_json
  // when the AutoML layer restores it; from_json below checks structure
  // only. Unset (null) serializes as the empty-monitor shape.
  JsonValue racing;

  // save_best_model bytes (empty = none: mid-search snapshot, or ensemble
  // mode, whose blended models are not serializable).
  std::string model_blob;

  JsonValue to_json() const;
  // Strict: throws SerializationError on any missing/ill-typed/out-of-range
  // field or violated cross-field invariant.
  static SearchCheckpoint from_json(const JsonValue& payload);

  // Durable file I/O in the sealed container (write/read_checkpoint_file).
  void save(const std::string& path) const;
  static SearchCheckpoint load(const std::string& path);
};

// Text layer, exposed separately so tests can corrupt payloads: serialize
// seals the compact JSON; parse unseals it and parses the JSON
// (SerializationError on any damage).
std::string serialize_checkpoint(const JsonValue& payload);
JsonValue parse_checkpoint(const std::string& text);
// write_file_durable / read_sealed_file over the sealed JSON.
void write_checkpoint_file(const std::string& path, const JsonValue& payload);
JsonValue read_checkpoint_file(const std::string& path);

}  // namespace flaml::resume
