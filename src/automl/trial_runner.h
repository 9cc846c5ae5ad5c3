// Trial execution: evaluate one configuration χ = (l, h, s, r) and report
// its validation error and cost (paper §3.1).
//
// The runner owns the resampling setup for a training dataset:
//   * holdout (r = holdout, ratio ρ = 0.1): a fixed stratified holdout set
//     is carved once; a trial trains on the first s rows of the shuffled
//     remainder and validates on the fixed set (so errors are comparable
//     across sample sizes);
//   * cross-validation (r = cv, k = 5): a trial k-folds its s-row sample
//     and averages the per-fold validation errors.
// Both run one loop over a trial's train/validate splits; holdout is the
// one-split case. Every split's binned substrate comes from the runner's
// SubstrateCache (substrate_cache.h).
// Trial cost is the measured wall-clock seconds of training + validation —
// the κ(χ) the AutoML layer budgets against.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>

#include "automl/racing.h"
#include "automl/substrate_cache.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/rng.h"
#include "data/split.h"
#include "learners/learner.h"
#include "metrics/error_metric.h"
#include "observe/metrics.h"
#include "observe/trace.h"

namespace flaml {

enum class Resampling { CV, Holdout };

const char* resampling_name(Resampling r);

// Paper §4.2 Step 0 thresholds: cross-validation iff BOTH hold, holdout
// otherwise. Named so the rule reads as the paper states it (the cell rate
// was once the literal `10e6`, which is 1e7 but is routinely misread as
// 1e6 — see tests/test_trial_runner.cpp for the boundary coverage).
inline constexpr std::size_t kCvMaxInstances = 100000;       // n < 100K
inline constexpr double kCvMaxCellRatePerHour = 1e7;         // n·d/hours < 10M

// `budget_seconds` should be the paper-equivalent budget (benches divide
// the real scaled-down budget by their budget scale).
Resampling propose_resampling(std::size_t n_instances, std::size_t n_features,
                              double budget_seconds);

// Pick a usable fold count for k-fold CV over `view`: every fold non-empty
// and every fold's TRAIN side at least 2 rows (the trainers' floor). Fold
// sizes under the stratified dealing are a pure function of (per-class row
// counts, k) — never the shuffle — so usability is decided analytically.
// Prefers requested_k clamped to [2, n]; failing that, the nearest usable k
// above it, then below. Returns 0 when NO k in [2, n] works (e.g. a 3-row
// classification view with class counts {2, 1}).
int choose_cv_k(const DataView& view, int requested_k);

// How a trial ended: Ok = a model was trained and scored; Killed = the fit
// overran max_seconds and was aborted (DeadlineExceeded); Failed = the
// learner threw anything else; Raced = the racing monitor killed it because
// its streamed learning curve was dominated by the incumbent envelope
// (TrialRaced). Killed/Failed/Raced trials report an infinite error but
// their cost is still charged, so the ECI bookkeeping keeps de-prioritizing
// learners that burn budget without finishing (their cost records as
// not-ok, so it never becomes the learner's κ — the last_ok_cost rule).
enum class TrialStatus { Ok, Killed, Failed, Raced };

const char* trial_status_name(TrialStatus status);

struct TrialResult {
  double error = 0.0;  // validation error \tilde{ε}(χ); +inf unless ok
  double cost = 0.0;   // seconds κ(χ); charged even for killed/failed trials
  // Measured wall-clock seconds of the trial, regardless of any cost model
  // (with one, `cost` is the modeled charge; this is what really elapsed).
  // Killed trials in particular: cost ≤ the wall cap they were given, while
  // elapsed_seconds reports the true measurement.
  double elapsed_seconds = 0.0;
  bool ok = true;      // status == TrialStatus::Ok
  TrialStatus status = TrialStatus::Ok;
  // Streamed validation learning curve (holdout trials run under a racing
  // plan only; empty otherwise). Ok curves feed the RacingMonitor envelope.
  std::vector<double> curve;
  // True training-unit counts from the learner's TrainReport (the last
  // split trained: holdout's one split, CV's last fold; 0 when the learner
  // does not report). A raced/deadline-capped trial reports how far it
  // actually got — the true curve length.
  int iterations_completed = 0;
  int iterations_planned = 0;
};

// Deterministic substitute for measured wall-clock trial cost (tests and
// simulation): κ(χ) = model(learner, config, sample_size). Replacing the
// clock makes the whole search — including ECI bookkeeping and the
// sample-size schedule — a pure function of the seed, which is what lets
// the stress suite compare parallel and serial runs record by record.
using TrialCostModel = std::function<double(
    const Learner& learner, const Config& config, std::size_t sample_size)>;

class TrialRunner {
 public:
  struct Options {
    Resampling resampling = Resampling::Holdout;
    int cv_folds = 5;
    double holdout_ratio = 0.1;
    std::uint64_t seed = 1;
    // Intra-trial worker threads handed to every TrainContext (1 = serial;
    // models are bit-identical for any value).
    int n_threads = 1;
    // When set, trial cost comes from the model instead of the wall clock.
    TrialCostModel cost_model;
    // Off by default. When attached, run() emits trial_started events —
    // from the calling thread, so in parallel search mode the sink sees
    // concurrent emissions (sinks are thread-safe by contract).
    observe::Tracer tracer;
    // When set, the substrate cache mirrors its hit/miss/bytes counters
    // here (names prefixed "substrate_cache."). May be null.
    observe::MetricsRegistry* metrics = nullptr;
  };

  // Throws DatasetTooSmall when the resampling setup cannot produce a
  // trainable split: holdout leaving fewer than 2 training rows, or a CV
  // view where no fold count yields non-empty folds with >= 2 training
  // rows per fold.
  TrialRunner(const Dataset& data, ErrorMetric metric, Options options);

  // Number of rows available for training samples (full data minus the
  // fixed holdout set when r = holdout). This is the "full size" the
  // sample-size schedule converges to.
  std::size_t max_sample_size() const { return train_view_.n_rows(); }
  Resampling resampling() const { return options_.resampling; }
  const ErrorMetric& metric() const { return metric_; }
  const Dataset& data() const { return *data_; }

  // Evaluate (learner, config) on the first `sample_size` rows.
  // `max_seconds` caps the training time of each model fit — 0 means
  // UNLIMITED (see TrainContext::max_seconds), so a zero budget never kills
  // a trial; in CV mode the cap is split evenly across the k folds, and an
  // unlimited budget maps to an unlimited per-fold cap.
  // `seed_salt` selects the training seed: 0 draws a fresh id from an
  // internal counter (seed depends on global call order); a nonzero salt
  // makes the trial seed a pure function of (runner seed, salt), so callers
  // that derive the salt from per-learner state get order-independent —
  // hence parallel-vs-serial reproducible — trials. The two id domains are
  // disjoint (salted ids carry a tag bit the counter ids never set), so a
  // counter-issued id can NEVER collide with a caller salt and silently
  // reuse another trial's training seed.
  // `racing` (may be null) is the launch-time racing plan: when enabled and
  // resampling is holdout (CV trials are never raced — per-fold curves are
  // not comparable to the fixed-holdout envelopes), the trial streams its
  // validation curve, is killed (TrialStatus::Raced, `trial_raced` trace
  // event) as soon as racing_dominated() fires against the plan's envelope
  // snapshot, and returns its curve in TrialResult::curve either way.
  // Thread-safe: concurrent run() calls are allowed (parallel search mode).
  TrialResult run(const Learner& learner, const Config& config,
                  std::size_t sample_size, double max_seconds = 0.0,
                  std::uint64_t seed_salt = 0,
                  const RacingPlan* racing = nullptr);

  // Train a final model on ALL available training rows (used to retrain the
  // best configuration at the end of fit()). `max_seconds` caps the fit
  // (0 = unlimited); callers pass the search budget so the retrain costs at
  // most one extra budget's worth of time.
  std::unique_ptr<Model> train_final(const Learner& learner, const Config& config,
                                     double max_seconds = 0.0);

  // Checkpoint/resume (src/resume): the runner's only mutable state is the
  // trial-id counter (everything else is rebuilt deterministically from the
  // dataset + options by the constructor). The snapshot also carries a
  // compatibility fingerprint — seed, resampling, folds/ratio and
  // max_sample_size — and from_json rejects a checkpoint whose fingerprint
  // does not match THIS runner (resuming against a different dataset or
  // split would silently change every trial seed). Throws SerializationError.
  JsonValue to_json() const;
  void from_json(const JsonValue& value);

  // Never null. Exposed for tests and benches that assert on hit/miss/bytes
  // counters.
  const SubstrateCache* substrate_cache() const { return substrate_cache_.get(); }

 private:
  const Dataset* data_;
  ErrorMetric metric_;
  Options options_;
  Rng rng_;
  WallClock clock_;
  DataView train_view_;    // shuffled; samples are prefixes of this
  DataView holdout_view_;  // empty when resampling == CV
  // Serves every trial's binned substrates and CV folds. Built in the
  // constructor; no checkpoint state — contents are rebuilt on demand, a
  // resumed run just starts cold.
  std::unique_ptr<SubstrateCache> substrate_cache_;
  std::atomic<std::uint64_t> trial_counter_{0};
};

}  // namespace flaml
