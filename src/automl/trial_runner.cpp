#include "automl/trial_runner.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/log.h"
#include "resume/serial_util.h"

namespace flaml {

namespace {

// Salted trial ids (derived from per-learner state by the AutoML layer)
// and counter-issued ids (seed_salt == 0 call paths) must never collide:
// a collision hands two distinct trials the identical training seed and
// silently breaks the parallel==serial determinism contract. The domains
// are separated with a tag bit — salted ids always carry it, counter ids
// never do.
constexpr std::uint64_t kSaltedTrialTag = 1ULL << 63;

// Domain separator for the k-fold partition rng: folds for a given
// (sample_size, k) are a pure function of (runner seed, this salt), which
// is what lets the substrate cache memoize them.
constexpr std::uint64_t kFoldSeedSalt = 0xc5f01d5ULL;

// Domain separator for per-fold training seeds: fold f trains with
// seed ^ ((f+1) * salt) so folds of one CV trial no longer share a seed,
// while fold "none" (holdout, f = -1 conceptually) keeps the unsalted
// value — holdout trials and their pinned golden digests are untouched.
constexpr std::uint64_t kFoldSeedMix = 0xbf58476d1ce4e5b9ULL;

// Per-class row counts (regression: one pseudo-class holding every row);
// the only input fold sizes depend on.
std::vector<std::size_t> class_row_counts(const DataView& view) {
  if (is_classification(view.data().task())) {
    std::vector<std::size_t> counts(
        static_cast<std::size_t>(view.data().n_classes()), 0);
    for (std::size_t i = 0; i < view.n_rows(); ++i) {
      ++counts[static_cast<std::size_t>(view.label(i))];
    }
    return counts;
  }
  return {view.n_rows()};
}

// Mirrors fold_assignment's dealing (row j of a class goes to fold j % k):
// fold f receives ceil((n_c - f) / k) rows of a class with n_c > f members.
bool cv_k_usable(const std::vector<std::size_t>& class_counts, std::size_t n,
                 int k) {
  if (k < 2 || n < static_cast<std::size_t>(k)) return false;
  const std::size_t uk = static_cast<std::size_t>(k);
  std::size_t max_fold = 0;      // fold 0 is always the largest
  std::size_t last_fold = 0;     // fold k-1 is always the smallest
  for (std::size_t n_c : class_counts) {
    max_fold += (n_c + uk - 1) / uk;
    if (n_c >= uk) last_fold += (n_c - (uk - 1) + uk - 1) / uk;
  }
  // Every fold non-empty (enough that the smallest is) and the largest
  // fold's complement — the smallest TRAIN side — still trains a model.
  return last_fold >= 1 && n - max_fold >= 2;
}

}  // namespace

int choose_cv_k(const DataView& view, int requested_k) {
  const std::size_t n = view.n_rows();
  if (n < 3) return 0;  // no split leaves >= 2 train rows + a valid row
  const std::vector<std::size_t> counts = class_row_counts(view);
  const int n_int = static_cast<int>(std::min<std::size_t>(
      n, static_cast<std::size_t>(std::numeric_limits<int>::max())));
  const int base = std::clamp(requested_k, 2, n_int);
  for (int k = base; k <= n_int; ++k) {
    if (cv_k_usable(counts, n, k)) return k;
  }
  for (int k = base - 1; k >= 2; --k) {
    if (cv_k_usable(counts, n, k)) return k;
  }
  return 0;
}

const char* resampling_name(Resampling r) {
  return r == Resampling::CV ? "cv" : "holdout";
}

const char* trial_status_name(TrialStatus status) {
  switch (status) {
    case TrialStatus::Ok: return "ok";
    case TrialStatus::Killed: return "killed";
    case TrialStatus::Raced: return "raced";
    case TrialStatus::Failed:
    default: return "failed";
  }
}

Resampling propose_resampling(std::size_t n_instances, std::size_t n_features,
                              double budget_seconds) {
  FLAML_REQUIRE(budget_seconds > 0.0, "budget must be positive");
  const double budget_hours = budget_seconds / 3600.0;
  const double cell_rate =
      static_cast<double>(n_instances) * static_cast<double>(n_features) / budget_hours;
  if (n_instances < kCvMaxInstances && cell_rate < kCvMaxCellRatePerHour) {
    return Resampling::CV;
  }
  return Resampling::Holdout;
}

TrialRunner::TrialRunner(const Dataset& data, ErrorMetric metric, Options options)
    : data_(&data), metric_(std::move(metric)), options_(options), rng_(options.seed) {
  data.validate();
  FLAML_REQUIRE(options_.cv_folds >= 2, "cv_folds must be >= 2");
  FLAML_REQUIRE(options_.holdout_ratio > 0.0 && options_.holdout_ratio < 1.0,
                "holdout_ratio must be in (0,1)");
  // One stratified shuffle up front; samples are prefixes of it (§4.2).
  std::vector<std::uint32_t> order = task_shuffled_indices(data, rng_);
  DataView shuffled(data, std::move(order));
  if (options_.resampling == Resampling::Holdout) {
    // Fixed validation set: the TAIL of the shuffle keeps prefixes valid as
    // training samples; the stratified shuffle makes the tail stratified.
    std::size_t n_holdout = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(data.n_rows()) *
                                    options_.holdout_ratio));
    n_holdout = std::min(n_holdout, data.n_rows() - 1);
    const std::size_t n_train = data.n_rows() - n_holdout;
    std::vector<std::uint32_t> train_rows(shuffled.rows().begin(),
                                          shuffled.rows().begin() +
                                              static_cast<std::ptrdiff_t>(n_train));
    std::vector<std::uint32_t> holdout_rows(shuffled.rows().begin() +
                                                static_cast<std::ptrdiff_t>(n_train),
                                            shuffled.rows().end());
    // Validate up front instead of letting a 1-row training view surface
    // later as an opaque trainer error on every single trial.
    if (n_train < 2) {
      std::ostringstream os;
      os << "holdout resampling on " << data.n_rows()
         << " rows leaves only " << n_train
         << " training row(s); need at least 2 (use more data or CV)";
      throw DatasetTooSmall(os.str());
    }
    train_view_ = DataView(data, std::move(train_rows));
    holdout_view_ = DataView(data, std::move(holdout_rows));
  } else {
    train_view_ = shuffled;
    if (choose_cv_k(train_view_, options_.cv_folds) == 0) {
      std::ostringstream os;
      os << "cross-validation on " << data.n_rows()
         << " rows: no fold count yields non-empty folds with >= 2 training "
            "rows per fold (use more data or holdout)";
      throw DatasetTooSmall(os.str());
    }
  }
  substrate_cache_ = std::make_unique<SubstrateCache>(
      &train_view_, options_.seed ^ kFoldSeedSalt, options_.tracer,
      options_.metrics);
}

TrialResult TrialRunner::run(const Learner& learner, const Config& config,
                             std::size_t sample_size, double max_seconds,
                             std::uint64_t seed_salt, const RacingPlan* racing) {
  FLAML_REQUIRE(sample_size >= 2, "sample size must be >= 2");
  sample_size = std::min(sample_size, train_view_.n_rows());
  const double start = clock_.now();
  TrialResult result;
  // Racing applies to holdout trials only: their curves are scored against
  // one fixed validation set, so envelopes are comparable across trials.
  const bool race = racing != nullptr && racing->enabled &&
                    options_.resampling == Resampling::Holdout;
  std::vector<double> curve;
  double running_best = std::numeric_limits<double>::infinity();
  TrainReport train_report;
  const std::uint64_t trial_id =
      seed_salt != 0 ? (seed_salt | kSaltedTrialTag)
                     : ((trial_counter_.fetch_add(1) + 1) & ~kSaltedTrialTag);
  if (options_.tracer) {
    JsonValue fields = JsonValue::make_object();
    fields.set("learner", JsonValue::make_string(learner.name()));
    fields.set("sample_size",
               JsonValue::make_number(static_cast<double>(sample_size)));
    fields.set("max_seconds", JsonValue::make_number(std::max(max_seconds, 0.0)));
    options_.tracer.emit("trial_started", std::move(fields));
  }
  try {
    // A trial trains and validates on k splits of its sample. Holdout is
    // one split: the sample prefix against the fixed holdout set. CV is the
    // k folds of the sample, with k chosen analytically so every fold is
    // non-empty and trainable — naive clamping to the sample size can still
    // deal empty folds under stratification (e.g. 3 rows with class counts
    // {2, 1} at k = 3).
    DataView sample = train_view_.prefix(sample_size);
    SubstrateCache* cache = substrate_cache_.get();
    int k = 1;
    std::shared_ptr<const std::vector<Fold>> folds;
    if (options_.resampling == Resampling::CV) {
      k = choose_cv_k(sample, options_.cv_folds);
      if (k == 0) {
        // Inside the try: surfaces as a cleanly Failed trial, not a crash.
        std::ostringstream os;
        os << "no usable fold count for a " << sample.n_rows() << "-row sample";
        throw DatasetTooSmall(os.str());
      }
      folds = cache->folds(sample_size, k);
    }
    const std::uint64_t trial_seed =
        options_.seed ^ (trial_id * 0x9e3779b97f4a7c15ULL);
    // max_seconds == 0 means UNLIMITED (the TrainContext contract), so an
    // unlimited trial budget must map to an unlimited per-split cap — not
    // to a zero cap that would kill every fold instantly. One split gets
    // the whole cap (x / 1 == x).
    const double split_cap =
        max_seconds > 0.0 ? max_seconds / static_cast<double>(k) : 0.0;
    double error = 0.0;
    double error_sum = 0.0;
    for (int f = 0; f < k; ++f) {
      const Fold* fold =
          folds != nullptr ? &(*folds)[static_cast<std::size_t>(f)] : nullptr;
      const DataView& valid = fold != nullptr ? fold->valid : holdout_view_;
      TrainContext ctx;
      ctx.train = fold != nullptr ? fold->train : sample;
      ctx.valid = &valid;
      ctx.max_seconds = split_cap;
      ctx.fail_on_deadline = true;
      // Salt each CV fold's training seed with the fold index: without it
      // every fold of a CV trial trains with the IDENTICAL seed, so seeded
      // randomness (bootstraps, column sampling) is correlated across folds
      // and the averaged error under-estimates variance. Holdout's one
      // split keeps the unsalted trial seed.
      ctx.seed = fold != nullptr
                     ? trial_seed ^ ((static_cast<std::uint64_t>(f) + 1) *
                                     kFoldSeedMix)
                     : trial_seed;
      ctx.n_threads = options_.n_threads;
      ctx.substrate = [cache, sample_size, k, f](int max_bin) {
        return k == 1 ? cache->prefix(sample_size, max_bin)
                      : cache->fold_train(sample_size, k, f, max_bin);
      };
      ctx.report = &train_report;
      if (race) {
        ctx.progress = [&](const TrainProgress& point) {
          curve.push_back(point.valid_loss);
          if (point.valid_loss < running_best) running_best = point.valid_loss;
          return !racing_dominated(racing->options, racing->envelope,
                                   curve.size(), running_best);
        };
      }
      auto model = learner.train(ctx, config);
      error = metric_(model->predict(valid), valid.labels());
      error_sum += error;
    }
    // One split reports the metric's value untouched (0.0 + e would turn a
    // -0.0 into +0.0); k folds report their mean.
    result.error = k == 1 ? error : error_sum / static_cast<double>(k);
  } catch (const TrialRaced&) {
    // Curve-dominated: the racing monitor vetoed further iterations. Like a
    // deadline kill, no model comes back and the error is infinite — but
    // only the budget actually burned is charged (see the cost rule below).
    FLAML_LOG(Debug) << "trial raced for learner '" << learner.name()
                     << "' at iteration " << curve.size();
    result.ok = false;
    result.status = TrialStatus::Raced;
    result.error = std::numeric_limits<double>::infinity();
    if (options_.tracer) {
      JsonValue fields = JsonValue::make_object();
      fields.set("learner", JsonValue::make_string(learner.name()));
      fields.set("sample_size",
                 JsonValue::make_number(static_cast<double>(sample_size)));
      fields.set("iteration",
                 JsonValue::make_number(static_cast<double>(curve.size())));
      fields.set("planned", JsonValue::make_number(static_cast<double>(
                                train_report.iterations_planned)));
      fields.set("best", JsonValue::make_number(running_best));
      if (racing != nullptr && !racing->envelope.empty()) {
        const std::size_t idx =
            std::min(curve.size(), racing->envelope.size()) - 1;
        fields.set("envelope", JsonValue::make_number(racing->envelope[idx]));
      }
      options_.tracer.emit("trial_raced", std::move(fields));
    }
  } catch (const DeadlineExceeded&) {
    // Killed-trial semantics: the budget is charged, no model comes back.
    FLAML_LOG(Debug) << "trial killed at deadline for learner '" << learner.name()
                     << "'";
    result.ok = false;
    result.status = TrialStatus::Killed;
    result.error = std::numeric_limits<double>::infinity();
  } catch (const std::exception& e) {
    FLAML_LOG(Warn) << "trial failed for learner '" << learner.name()
                    << "': " << e.what();
    result.ok = false;
    result.status = TrialStatus::Failed;
    result.error = std::numeric_limits<double>::infinity();
  }
  result.curve = std::move(curve);
  result.iterations_completed = train_report.iterations_completed;
  result.iterations_planned = train_report.iterations_planned;
  const double elapsed = std::max(clock_.now() - start, 1e-9);
  result.elapsed_seconds = elapsed;
  if (!options_.cost_model) {
    result.cost = elapsed;
  } else {
    const double estimate =
        std::max(options_.cost_model(learner, config, sample_size), 1e-9);
    switch (result.status) {
      case TrialStatus::Killed:
        // A deadline kill burned (at most) its wall cap, not the model's
        // full-trial estimate — charging the estimate made traces claim
        // more budget than the trial could possibly have consumed. The cap
        // (not measured elapsed) keeps modeled searches deterministic AND
        // keeps charging killed learners enough that ECI de-prioritizes
        // them; measured wall time rides in elapsed_seconds.
        result.cost =
            max_seconds > 0.0 ? std::min(estimate, max_seconds) : estimate;
        break;
      case TrialStatus::Raced:
        // Deterministic partial charge: the race decision (hence the
        // completed-iteration count) is a pure function of the seed and the
        // envelope snapshot, so modeled searches stay reproducible.
        result.cost = std::max(
            estimate * static_cast<double>(result.iterations_completed) /
                static_cast<double>(std::max(result.iterations_planned, 1)),
            1e-9);
        break;
      default:
        result.cost = estimate;
        break;
    }
  }
  return result;
}

std::unique_ptr<Model> TrialRunner::train_final(const Learner& learner,
                                                const Config& config,
                                                double max_seconds) {
  TrainContext ctx;
  ctx.train = train_view_;
  ctx.valid = options_.resampling == Resampling::Holdout ? &holdout_view_ : nullptr;
  ctx.max_seconds = max_seconds;
  ctx.seed = options_.seed;
  ctx.n_threads = options_.n_threads;
  // The full training view is the n_rows prefix of itself, so the final
  // retrain reuses the search's largest-sample substrate when one exists.
  SubstrateCache* cache = substrate_cache_.get();
  const std::size_t n = train_view_.n_rows();
  ctx.substrate = [cache, n](int max_bin) { return cache->prefix(n, max_bin); };
  return learner.train(ctx, config);
}

JsonValue TrialRunner::to_json() const {
  JsonValue out = JsonValue::make_object();
  out.set("trial_counter", resume::json_u64(trial_counter_.load()));
  out.set("seed", resume::json_u64(options_.seed));
  out.set("resampling",
          JsonValue::make_string(resampling_name(options_.resampling)));
  out.set("cv_folds", JsonValue::make_number(options_.cv_folds));
  out.set("holdout_ratio", resume::json_double(options_.holdout_ratio));
  out.set("max_sample_size", resume::json_size(max_sample_size()));
  return out;
}

void TrialRunner::from_json(const JsonValue& value) {
  // The fingerprint must match THIS runner: the trial seed is a pure
  // function of (runner seed, trial id), and the sample prefixes depend on
  // the split — resuming onto a different dataset or resampling setup would
  // silently re-score every remaining trial.
  FLAML_PARSE_REQUIRE(resume::req_u64(value, "seed") == options_.seed,
                      "checkpoint runner seed does not match this runner");
  FLAML_PARSE_REQUIRE(resume::req_string(value, "resampling") ==
                          resampling_name(options_.resampling),
                      "checkpoint resampling does not match this runner");
  FLAML_PARSE_REQUIRE(
      resume::req_int(value, "cv_folds", 2, 1000000) == options_.cv_folds,
      "checkpoint cv_folds does not match this runner");
  FLAML_PARSE_REQUIRE(resume::req_finite(value, "holdout_ratio") ==
                          options_.holdout_ratio,
                      "checkpoint holdout_ratio does not match this runner");
  FLAML_PARSE_REQUIRE(
      resume::req_size(value, "max_sample_size",
                       std::numeric_limits<std::size_t>::max() >> 1) ==
          max_sample_size(),
      "checkpoint max_sample_size does not match this runner's dataset");
  const std::uint64_t counter = resume::req_u64(value, "trial_counter");
  FLAML_PARSE_REQUIRE((counter & kSaltedTrialTag) == 0,
                      "checkpoint trial_counter has the salted-id tag bit set");
  trial_counter_.store(counter);
}

}  // namespace flaml
