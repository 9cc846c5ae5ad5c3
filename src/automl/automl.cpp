#include "automl/automl.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <future>
#include <optional>

#include "common/error.h"
#include "common/thread_pool.h"
#include "common/log.h"
#include "common/math_util.h"
#include "common/sealed_file.h"

namespace flaml {

namespace {

// Per-trial seed salt: FNV-1a of the learner name mixed with the learner's
// own proposal index. A pure function of (learner, per-learner trial count),
// so a trial's training seed does not depend on how concurrent trials of
// OTHER learners interleave — the keystone of parallel-search determinism.
std::uint64_t trial_salt(const std::string& learner, std::uint64_t index) {
  std::uint64_t h = fnv1a64(learner);
  h ^= index + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h == 0 ? 1 : h;  // 0 means "use the runner's internal counter"
}

}  // namespace

const char* search_signal_name(SearchSignal signal) {
  switch (signal) {
    case SearchSignal::Run: return "run";
    case SearchSignal::Preempt: return "preempt";
    case SearchSignal::Cancel: return "cancel";
  }
  return "unknown";
}

AutoML::AutoML() = default;

void AutoML::add_learner(LearnerPtr learner) {
  FLAML_REQUIRE(learner != nullptr, "learner must not be null");
  for (const auto& existing : extra_learners_) {
    FLAML_REQUIRE(existing->name() != learner->name(),
                  "duplicate learner '" << learner->name() << "'");
  }
  extra_learners_.push_back(std::move(learner));
}

std::size_t AutoML::choose_learner(Rng& rng, bool greedy, double c) const {
  // Cold start: the caller guarantees the fastest learner runs first, which
  // calibrates every other learner's initial ECI1.
  std::vector<double> weights(states_.size());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const LearnerState& s = states_[i];
    const bool can_grow = s.sample_size < runner_->max_sample_size();
    double eci = s.eci.eci(best_error_, c, can_grow);
    weights[i] = 1.0 / std::max(eci, 1e-9);
  }
  if (greedy) {
    return static_cast<std::size_t>(
        std::max_element(weights.begin(), weights.end()) - weights.begin());
  }
  return rng.categorical(weights);
}

void AutoML::fit(const Dataset& data, const AutoMLOptions& options) {
  run_search(data, options, nullptr);
}

void AutoML::resume_from(const Dataset& data, const AutoMLOptions& options,
                         const resume::SearchCheckpoint& checkpoint) {
  run_search(data, options, &checkpoint);
}

void AutoML::resume_from_file(const Dataset& data, const AutoMLOptions& options,
                              const std::string& path) {
  const resume::SearchCheckpoint checkpoint = resume::SearchCheckpoint::load(path);
  run_search(data, options, &checkpoint);
}

void AutoML::run_search(const Dataset& data, const AutoMLOptions& options,
                        const resume::SearchCheckpoint* checkpoint) {
  FLAML_REQUIRE(options.time_budget_seconds > 0.0, "time budget must be positive");
  FLAML_REQUIRE(options.sample_multiplier > 1.0, "sample multiplier must be > 1");
  FLAML_REQUIRE(options.budget_scale > 0.0, "budget_scale must be positive");
  FLAML_REQUIRE(options.n_parallel >= 1, "n_parallel must be >= 1");
  FLAML_REQUIRE(options.n_threads >= 1, "n_threads must be >= 1");
  FLAML_REQUIRE(options.checkpoint_every_n_trials == 0 ||
                    !options.checkpoint_path.empty(),
                "checkpoint_every_n_trials needs a checkpoint_path");
  data.validate();
  data_ = &data;
  history_.clear();
  states_.clear();
  best_model_.reset();
  ensemble_models_.clear();
  ensemble_weights_.clear();
  best_error_ = std::numeric_limits<double>::infinity();
  best_learner_.clear();
  best_config_.clear();
  best_sample_size_ = 0;
  metrics_.clear();
  racing_monitor_.clear();
  iteration_ = 0;
  calibrated_ = false;
  elapsed_offset_ = 0.0;
  elapsed_seconds_ = 0.0;
  interrupt_ = SearchSignal::Run;
  seed_ = options.seed;

  const Task task = data.task();
  rng_ = Rng(options.seed);
  Rng& rng = rng_;
  observe::Tracer tracer(options.trace_sink);

  // --- Metric ---
  ErrorMetric metric = options.custom_metric.has_value()
                           ? *options.custom_metric
                           : (options.metric.empty()
                                  ? ErrorMetric::default_for(task)
                                  : ErrorMetric::by_name(options.metric));
  metric_name_ = metric.name();

  if (tracer) {
    JsonValue fields = JsonValue::make_object();
    fields.set("task", JsonValue::make_string(task_name(task)));
    fields.set("metric", JsonValue::make_string(metric.name()));
    fields.set("budget_seconds", JsonValue::make_number(options.time_budget_seconds));
    fields.set("n_parallel", JsonValue::make_number(options.n_parallel));
    fields.set("n_threads", JsonValue::make_number(options.n_threads));
    fields.set("max_iterations",
               JsonValue::make_number(static_cast<double>(options.max_iterations)));
    fields.set("seed", JsonValue::make_number(static_cast<double>(options.seed)));
    fields.set("resumed", JsonValue::make_bool(checkpoint != nullptr));
    tracer.emit("run_started", std::move(fields));
  }

  // --- Step 0: resampling strategy proposer ---
  Resampling resampling;
  switch (options.resampling) {
    case ResamplingPolicy::ForceCV: resampling = Resampling::CV; break;
    case ResamplingPolicy::ForceHoldout: resampling = Resampling::Holdout; break;
    case ResamplingPolicy::Auto:
    default:
      resampling = propose_resampling(
          data.n_rows(), data.n_cols(),
          options.time_budget_seconds / options.budget_scale);
      break;
  }
  resampling_used_ = resampling;
  if (tracer) {
    JsonValue fields = JsonValue::make_object();
    fields.set("n_rows", JsonValue::make_number(static_cast<double>(data.n_rows())));
    fields.set("n_cols", JsonValue::make_number(static_cast<double>(data.n_cols())));
    fields.set("budget_seconds",
               JsonValue::make_number(options.time_budget_seconds /
                                      options.budget_scale));
    fields.set("chosen", JsonValue::make_string(resampling_name(resampling)));
    fields.set("forced",
               JsonValue::make_bool(options.resampling != ResamplingPolicy::Auto));
    tracer.emit("resampling_proposed", std::move(fields));
  }

  TrialRunner::Options runner_options;
  runner_options.resampling = resampling;
  runner_options.cv_folds = options.cv_folds;
  runner_options.holdout_ratio = options.holdout_ratio;
  runner_options.seed = options.seed;
  runner_options.n_threads = options.n_threads;
  runner_options.cost_model = options.trial_cost_model;
  runner_options.tracer = tracer;
  runner_options.metrics = &metrics_;
  runner_ = std::make_unique<TrialRunner>(data, metric, runner_options);
  const std::size_t full_size = runner_->max_sample_size();

  // Racing applies only under holdout resampling: CV per-fold curves are
  // not comparable to a fixed-holdout envelope, so a CV search silently
  // runs with racing off even when options.racing.enabled is set.
  const bool racing_on =
      options.racing.enabled && resampling == Resampling::Holdout;

  // --- Learner lineup ---
  std::vector<LearnerPtr> lineup;
  {
    std::vector<LearnerPtr> pool = default_learners(task);
    for (const auto& l : extra_learners_) {
      if (l->supports(task)) pool.push_back(l);
    }
    if (options.estimator_list.empty()) {
      lineup = pool;
    } else {
      for (const auto& name : options.estimator_list) {
        bool found = false;
        for (const auto& l : pool) {
          if (l->name() == name) {
            lineup.push_back(l);
            found = true;
            break;
          }
        }
        FLAML_REQUIRE(found, "estimator '" << name << "' unknown or unsupported for "
                                           << task_name(task));
      }
    }
  }
  FLAML_REQUIRE(!lineup.empty(), "no learners available for this task");

  const std::size_t init_sample =
      options.sample_policy == SamplePolicy::FullData
          ? full_size
          : std::min(full_size, std::max<std::size_t>(options.initial_sample_size, 10));

  for (const auto& learner : lineup) {
    LearnerState state;
    state.learner = learner;
    state.space = std::make_unique<ConfigSpace>(learner->space(task, full_size));
    state.tuner = std::make_unique<Flow2>(*state.space, rng.next());
    state.tuner->set_tracer(tracer.with("learner", learner->name()));
    if (auto it = options.starting_points.find(learner->name());
        it != options.starting_points.end()) {
      state.tuner->set_start_point(it->second);
    }
    state.tuner->set_adaptation(init_sample >= full_size);
    state.sample_size = init_sample;
    states_.push_back(std::move(state));
  }

  // Cold-start order: the learner with the smallest cost multiplier first.
  std::size_t fastest = 0;
  for (std::size_t i = 1; i < states_.size(); ++i) {
    if (states_[i].learner->initial_cost_multiplier() <
        states_[fastest].learner->initial_cost_multiplier()) {
      fastest = i;
    }
  }

  const double budget = options.time_budget_seconds;
  const double c = options.sample_multiplier;
  // Budget accounting that survives a crash: `elapsed()` includes the time
  // already spent before the checkpoint this run resumed from
  // (elapsed_offset_, restored below). The time source is injectable
  // (options.clock; a private steady-clock WallClock by default) and every
  // reading goes through a BudgetMeter, which accumulates only forward
  // motion — a source that jumps backwards cannot make the budget math
  // immortalize the search, and the steady default is immune to
  // system-time jumps in the first place.
  WallClock wall_clock;
  const Clock* clock_source =
      options.clock != nullptr ? options.clock : &wall_clock;
  BudgetMeter budget_meter(*clock_source);
  auto elapsed = [&]() { return budget_meter.elapsed() + elapsed_offset_; };

  // Cooperative yield points: polled at every trial boundary. A Preempt or
  // Cancel answer stops the search at that boundary (after draining any
  // in-flight parallel trials) without training a final model.
  auto poll_control = [&]() {
    if (!options.search_control) return false;
    const SearchSignal signal =
        options.search_control(static_cast<std::size_t>(iteration_));
    if (signal == SearchSignal::Run) return false;
    interrupt_ = signal;
    return true;
  };

  // --- Restore a checkpointed search (resume_from) ---
  // Everything constructed above is a deterministic function of (data,
  // options): metric, split, runner, lineup, spaces. The checkpoint supplies
  // the mutable state on top, after its fingerprint is cross-checked — a
  // checkpoint from a different search must throw, never silently diverge.
  if (checkpoint != nullptr) {
    const resume::SearchCheckpoint& ckpt = *checkpoint;
    FLAML_PARSE_REQUIRE(ckpt.task == task_name(task),
                        "checkpoint task '" << ckpt.task << "' != '"
                                            << task_name(task) << "'");
    FLAML_PARSE_REQUIRE(ckpt.metric == metric.name(),
                        "checkpoint metric '" << ckpt.metric << "' != '"
                                              << metric.name() << "'");
    FLAML_PARSE_REQUIRE(ckpt.seed == options.seed,
                        "checkpoint seed does not match options.seed");
    FLAML_PARSE_REQUIRE(ckpt.resampling == resampling_name(resampling),
                        "checkpoint resampling '" << ckpt.resampling << "' != '"
                                                  << resampling_name(resampling)
                                                  << "'");
    FLAML_PARSE_REQUIRE(ckpt.learners.size() == states_.size(),
                        "checkpoint has " << ckpt.learners.size()
                                          << " learners, this search has "
                                          << states_.size());
    runner_->from_json(ckpt.runner);
    for (std::size_t i = 0; i < states_.size(); ++i) {
      LearnerState& state = states_[i];
      const resume::LearnerCheckpoint& saved = ckpt.learners[i];
      FLAML_PARSE_REQUIRE(saved.name == state.learner->name(),
                          "checkpoint learner " << i << " is '" << saved.name
                                                << "', lineup has '"
                                                << state.learner->name() << "'");
      state.eci = EciState::from_json(saved.eci);
      state.tuner->from_json(saved.tuner);
      FLAML_PARSE_REQUIRE(saved.sample_size <= full_size,
                          "checkpoint sample_size for '"
                              << saved.name << "' exceeds the training size");
      state.sample_size = saved.sample_size;
      state.best_error = saved.best_error;
      state.best_config = saved.best_config;
      state.n_proposed = saved.n_proposed;
      state.tuner->set_adaptation(state.sample_size >= full_size);
    }
    iteration_ = static_cast<int>(ckpt.iteration);
    calibrated_ = ckpt.calibrated;
    elapsed_offset_ = ckpt.elapsed_seconds;
    elapsed_seconds_ = ckpt.elapsed_seconds;
    resume::restore_rng_value(rng_, ckpt.rng);
    best_learner_ = ckpt.best_learner;
    best_error_ = ckpt.best_error;
    best_sample_size_ = ckpt.best_sample_size;
    best_config_ = ckpt.best_config;
    history_ = ckpt.history;
    metrics_.state_from_json(ckpt.metrics);
    // Semantic validation (monotone envelopes, finite losses, no duplicate
    // keys) lives in RacingMonitor::from_json — checkpoint.cpp only checks
    // structure, because flaml_resume cannot link against flaml_automl.
    if (ckpt.racing.is_object()) {
      racing_monitor_.from_json(ckpt.racing);
    } else {
      racing_monitor_.clear();
    }
    for (const resume::PendingTrial& p : ckpt.pending) {
      // Re-derive the salt the original launch used: a pure function of
      // (learner, per-learner index), so a tampered salt is detectable.
      FLAML_PARSE_REQUIRE(p.seed_salt == trial_salt(p.learner, p.trial_index),
                          "pending trial seed_salt does not match its learner "
                          "and index");
      FLAML_PARSE_REQUIRE(p.sample_size <= full_size,
                          "pending trial sample_size exceeds the training size");
      bool found = false;
      for (const LearnerState& state : states_) {
        if (state.learner->name() != p.learner) continue;
        found = true;
        FLAML_PARSE_REQUIRE(p.trial_index <= state.n_proposed,
                            "pending trial_index exceeds the learner's "
                            "proposal count");
      }
      FLAML_PARSE_REQUIRE(found, "pending trial learner '" << p.learner
                                                           << "' not in lineup");
    }
  }

  // --- Step 2: hyperparameter & sample size proposer (for one learner) ---
  struct Proposal {
    Config config;
    bool grow_sample = false;
    std::uint64_t seed_salt = 0;
    std::uint64_t trial_index = 0;  // per-learner, 1-based
  };
  auto propose = [&](LearnerState& state) {
    Proposal p;
    p.trial_index = ++state.n_proposed;
    p.seed_salt = trial_salt(state.learner->name(), p.trial_index);
    const bool can_grow = options.sample_policy == SamplePolicy::Adaptive &&
                          state.sample_size < full_size;
    if (state.eci.tried() && can_grow &&
        state.eci.eci1() >= state.eci.eci2(c, can_grow) && state.tuner->has_best()) {
      p.grow_sample = true;
      const std::size_t previous = state.sample_size;
      state.sample_size = std::min(
          full_size, static_cast<std::size_t>(std::lround(
                         static_cast<double>(state.sample_size) * c)));
      p.config = state.tuner->best_config();
      metrics_.add("sample_doublings");
      if (tracer) {
        JsonValue fields = JsonValue::make_object();
        fields.set("learner", JsonValue::make_string(state.learner->name()));
        fields.set("from", JsonValue::make_number(static_cast<double>(previous)));
        fields.set("to",
                   JsonValue::make_number(static_cast<double>(state.sample_size)));
        tracer.emit("sample_doubled", std::move(fields));
      }
    } else {
      p.config = state.tuner->ask();
    }
    return p;
  };

  // One entry per learner: the full ECI / ECI1 / ECI2 picture the proposer
  // decided from (infinities encode "not computable yet" before the
  // cold-start calibration, and "cannot grow" for ECI2).
  auto eci_vector_json = [&]() {
    JsonValue arr = JsonValue::make_array();
    for (const auto& s : states_) {
      const bool can_grow = s.sample_size < runner_->max_sample_size();
      const bool known = s.eci.tried() || s.eci.initial_eci1 > 0.0;
      const double inf = std::numeric_limits<double>::infinity();
      JsonValue e = JsonValue::make_object();
      e.set("learner", JsonValue::make_string(s.learner->name()));
      e.set("eci", observe::json_error_field(
                       known ? s.eci.eci(best_error_, c, can_grow) : inf));
      e.set("eci1", observe::json_error_field(known ? s.eci.eci1() : inf));
      e.set("eci2", observe::json_error_field(known ? s.eci.eci2(c, can_grow) : inf));
      e.set("best_error", observe::json_error_field(s.eci.best_error));
      e.set("n_trials", JsonValue::make_number(s.eci.n_trials));
      e.set("sample_size",
            JsonValue::make_number(static_cast<double>(s.sample_size)));
      arr.push(std::move(e));
    }
    return arr;
  };
  auto trace_learner_proposed = [&](std::size_t idx, std::size_t slot) {
    if (!tracer) return;
    const char* mode = "cold_start";
    if (calibrated_) {
      switch (options.learner_choice) {
        case LearnerChoice::RoundRobin: mode = "round_robin"; break;
        case LearnerChoice::EciGreedy: mode = "eci_greedy"; break;
        case LearnerChoice::EciSampling:
        default: mode = "eci_sampling"; break;
      }
    }
    JsonValue fields = JsonValue::make_object();
    fields.set("slot", JsonValue::make_number(static_cast<double>(slot)));
    fields.set("learner", JsonValue::make_string(states_[idx].learner->name()));
    fields.set("mode", JsonValue::make_string(mode));
    fields.set("eci", eci_vector_json());
    tracer.emit("learner_proposed", std::move(fields));
  };

  // --- Step 3 bookkeeping after a trial finished ---
  // `run_sample` is the launch-time sample size the trial actually trained
  // on (commit-time state.sample_size may differ after a FLOW2 restart);
  // it keys the racing envelope the trial's curve feeds.
  auto commit = [&](LearnerState& state, const Proposal& proposal,
                    const TrialResult& trial, std::size_t run_sample) {
    ++iteration_;
    elapsed_seconds_ = elapsed();
    state.eci.record(trial.cost, trial.error, trial.ok);
    if (proposal.grow_sample) {
      state.tuner->update_incumbent_error(trial.error);
    } else {
      state.tuner->tell(trial.error);
    }
    state.tuner->set_adaptation(state.sample_size >= full_size);

    // Restart on convergence at full sample size (escape local optima,
    // FairChance); the sample size resets with the restart.
    if (state.tuner->converged() && state.sample_size >= full_size) {
      state.tuner->restart();
      metrics_.add("flow2_restarts");
      if (options.sample_policy == SamplePolicy::Adaptive) {
        state.sample_size = init_sample;
        state.tuner->set_adaptation(init_sample >= full_size);
      }
    }

    if (trial.ok && trial.error < state.best_error) {
      state.best_error = trial.error;
      state.best_config = proposal.config;
    }
    const bool improved_global = trial.ok && trial.error < best_error_;
    if (improved_global) {
      best_error_ = trial.error;
      best_config_ = proposal.config;
      best_learner_ = state.learner->name();
      best_sample_size_ = state.sample_size;
      metrics_.set("best_error", best_error_);
      metrics_.set("time_to_best_seconds", elapsed_seconds_);
      metrics_.set("iteration_of_best", iteration_);
    }
    metrics_.add("trials_total");
    metrics_.add("trials." + state.learner->name());
    switch (trial.status) {
      case TrialStatus::Ok: metrics_.add("trials_ok"); break;
      case TrialStatus::Killed: metrics_.add("trials_killed"); break;
      case TrialStatus::Failed: metrics_.add("trials_failed"); break;
      case TrialStatus::Raced: metrics_.add("trials_raced"); break;
    }
    metrics_.observe("trial_cost", trial.cost);
    if (trial.ok) metrics_.observe("trial_error", trial.error);
    if (racing_on && trial.ok && !trial.curve.empty()) {
      // Only completed trials set envelopes: a raced trial's truncated curve
      // would otherwise look artificially strong at its kill point.
      racing_monitor_.record(state.learner->name(), run_sample, trial.curve);
    }
    if (tracer) {
      JsonValue config = JsonValue::make_object();
      for (const auto& [name, value] : proposal.config) {
        config.set(name, JsonValue::make_number(value));
      }
      JsonValue fields = JsonValue::make_object();
      fields.set("iteration", JsonValue::make_number(iteration_));
      fields.set("learner", JsonValue::make_string(state.learner->name()));
      fields.set("trial",
                 JsonValue::make_number(static_cast<double>(proposal.trial_index)));
      fields.set("sample_size",
                 JsonValue::make_number(static_cast<double>(state.sample_size)));
      fields.set("config", std::move(config));
      fields.set("error", observe::json_error_field(trial.error));
      fields.set("cost", JsonValue::make_number(trial.cost));
      fields.set("elapsed_seconds",
                 JsonValue::make_number(trial.elapsed_seconds));
      fields.set("status", JsonValue::make_string(trial_status_name(trial.status)));
      fields.set("improved", JsonValue::make_bool(improved_global));
      fields.set("best_error_so_far", observe::json_error_field(best_error_));
      tracer.emit("trial_finished", std::move(fields));
    }

    TrialRecord record;
    record.iteration = iteration_;
    record.finished_at = elapsed_seconds_;
    record.learner = state.learner->name();
    record.config = proposal.config;
    record.sample_size = state.sample_size;
    record.error = trial.error;
    record.cost = trial.cost;
    record.best_error_so_far = best_error_;
    history_.push_back(std::move(record));

    if (!calibrated_) {
      // Calibrate cold-start ECI1 of the other learners from the fastest
      // learner's first (smallest) cost.
      const double base_cost =
          trial.cost / states_[fastest].learner->initial_cost_multiplier();
      for (auto& other : states_) {
        other.eci.initial_eci1 =
            base_cost * other.learner->initial_cost_multiplier();
      }
      calibrated_ = true;
    }
    FLAML_LOG(Debug) << "iter " << iteration_ << " learner=" << state.learner->name()
                     << " s=" << state.sample_size << " err=" << trial.error
                     << " cost=" << trial.cost;
  };

  // `pending` = trials launched but not yet committed: round-robin rotates
  // over the slot index iteration + pending so that a parallel launch
  // sequence visits learners in exactly the serial order.
  auto pick_learner = [&](std::size_t pending) -> std::size_t {
    if (!calibrated_) return fastest;  // appendix rule: fastest learner first
    if (options.learner_choice == LearnerChoice::RoundRobin) {
      return (static_cast<std::size_t>(iteration_) + pending) % states_.size();
    }
    return choose_learner(rng, options.learner_choice == LearnerChoice::EciGreedy, c);
  };

  auto target_reached = [&]() {
    return options.target_error >= 0.0 && best_error_ <= options.target_error;
  };
  auto iterations_left = [&](std::size_t pending) {
    return options.max_iterations == 0 ||
           static_cast<std::size_t>(iteration_) + pending < options.max_iterations;
  };

  // Launch-time racing plan: a snapshot of the incumbent envelope for this
  // (learner, sample size). A trial races against exactly the envelopes
  // known when it LAUNCHED, never ones committed while it runs — that makes
  // racing decisions a pure function of the (deterministic) launch/commit
  // interleaving, and is also what a checkpoint's pending list must carry so
  // a resumed re-run of an in-flight trial races the same envelope.
  auto racing_plan_for = [&](const std::string& learner,
                             std::size_t sample_size) {
    RacingPlan plan;
    if (!racing_on) return plan;
    plan.enabled = true;
    plan.options = options.racing;
    plan.envelope = racing_monitor_.envelope(learner, sample_size);
    return plan;
  };
  auto plan_from_pending = [&](const resume::PendingTrial& p) {
    RacingPlan plan;
    plan.enabled = p.racing_enabled;
    plan.options = options.racing;
    plan.envelope = p.envelope;
    return plan;
  };

  // A proposal reconstructed from (or destined for) a checkpoint's pending
  // list. Launch order is the commit order, so resume re-runs these FIFO.
  auto to_pending = [&](const LearnerState& state, const Proposal& proposal,
                        std::size_t sample_size, const RacingPlan& plan) {
    resume::PendingTrial p;
    p.learner = state.learner->name();
    p.trial_index = proposal.trial_index;
    p.seed_salt = proposal.seed_salt;
    p.grow_sample = proposal.grow_sample;
    p.sample_size = sample_size;
    p.config = proposal.config;
    p.racing_enabled = plan.enabled;
    p.envelope = plan.envelope;
    return p;
  };
  auto from_pending = [&](const resume::PendingTrial& p) {
    Proposal proposal;
    proposal.config = p.config;
    proposal.grow_sample = p.grow_sample;
    proposal.seed_salt = p.seed_salt;
    proposal.trial_index = p.trial_index;
    return proposal;
  };
  auto state_index = [&](const std::string& learner) {
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (states_[i].learner->name() == learner) return i;
    }
    FLAML_CHECK_MSG(false, "learner '" << learner << "' vanished from lineup");
    return states_.size();
  };

  // --- The search loop (paper Figure 3; its appendix runs N of them) ---
  // Up to n_parallel trials in flight, at most one per learner (FLOW2's
  // ask/tell is sequential per learner). Proposals and bookkeeping stay on
  // this thread; completions are committed in launch order, which keeps the
  // history deterministic given the trial outcomes. Serial search is the
  // one-slot case of this loop: its trials run inline on this thread, so it
  // starts no pool.
  {
    struct InFlight {
      std::size_t state_idx = 0;
      Proposal proposal;
      std::size_t sample_size = 0;  // at launch (== commit-time state value)
      RacingPlan plan;              // envelope snapshot at launch
      std::future<TrialResult> future;
    };
    std::optional<ThreadPool> pool;
    if (options.n_parallel > 1) {
      pool.emplace(static_cast<std::size_t>(options.n_parallel));
    }
    std::vector<InFlight> inflight;
    std::vector<bool> busy(states_.size(), false);

    auto launch = [&](std::size_t idx, Proposal proposal,
                      std::size_t sample_size, double remaining,
                      RacingPlan plan) {
      busy[idx] = true;
      // The trial races against its own copy of the plan — the inflight
      // vector may reallocate while the trial runs.
      auto run_trial = [this, learner = states_[idx].learner.get(),
                        config = proposal.config, sample_size, remaining,
                        salt = proposal.seed_salt, plan] {
        return runner_->run(*learner, config, sample_size, remaining, salt,
                            &plan);
      };
      InFlight entry;
      entry.state_idx = idx;
      entry.proposal = std::move(proposal);
      entry.sample_size = sample_size;
      entry.plan = std::move(plan);  // kept for the checkpoint's pending list
      if (pool) {
        entry.future = pool->submit(std::move(run_trial));
      } else {
        std::packaged_task<TrialResult()> trial(std::move(run_trial));
        entry.future = trial.get_future();
        trial();
      }
      inflight.push_back(std::move(entry));
    };

    if (checkpoint != nullptr) {
      // Re-launch the trials that were in flight when the checkpoint was
      // written, in their original launch order; the commit loop below
      // consumes them FIFO exactly as the uninterrupted run would have.
      for (const resume::PendingTrial& p : checkpoint->pending) {
        const std::size_t idx = state_index(p.learner);
        FLAML_PARSE_REQUIRE(!busy[idx], "two pending trials for learner '"
                                            << p.learner << "'");
        launch(idx, from_pending(p), p.sample_size,
               std::max(budget - elapsed(), 0.0), plan_from_pending(p));
      }
    }

    auto launch_one = [&]() -> bool {
      const double remaining = budget - elapsed();
      if (remaining <= 0.0 || !iterations_left(inflight.size())) return false;
      for (int attempt = 0; attempt < 16; ++attempt) {
        std::size_t idx = pick_learner(inflight.size());
        if (busy[idx]) {
          // One outstanding trial per learner. Round-robin always maps the
          // current slot to the same learner, so retrying cannot help.
          if (options.learner_choice == LearnerChoice::RoundRobin) return false;
          continue;
        }
        trace_learner_proposed(idx,
                               static_cast<std::size_t>(iteration_) + inflight.size());
        LearnerState& state = states_[idx];
        Proposal proposal = propose(state);
        const std::size_t run_sample = state.sample_size;
        launch(idx, std::move(proposal), run_sample, remaining,
               racing_plan_for(state.learner->name(), run_sample));
        return true;
      }
      return false;
    };

    // Commit the oldest launch, write the checkpoint when one is due, then
    // fire the test hook.
    auto commit_front = [&]() {
      InFlight front = std::move(inflight.front());
      inflight.erase(inflight.begin());
      TrialResult trial = front.future.get();
      busy[front.state_idx] = false;
      commit(states_[front.state_idx], front.proposal, trial,
             front.sample_size);
      if (options.checkpoint_every_n_trials > 0 &&
          static_cast<std::size_t>(iteration_) %
                  options.checkpoint_every_n_trials ==
              0) {
        // The still-uncommitted launches: a resume re-runs exactly these
        // before proposing anything new.
        std::vector<resume::PendingTrial> pending;
        pending.reserve(inflight.size());
        for (const InFlight& entry : inflight) {
          pending.push_back(to_pending(states_[entry.state_idx],
                                       entry.proposal, entry.sample_size,
                                       entry.plan));
        }
        make_checkpoint(pending, false).save(options.checkpoint_path);
      }
      if (options.on_trial_committed) {
        options.on_trial_committed(static_cast<std::size_t>(iteration_));
      }
    };

    while (elapsed() < budget && !target_reached() &&
           (!inflight.empty() || iterations_left(0))) {
      if (poll_control()) break;
      // The calibration trial runs alone (its cost seeds every ECI).
      const int cap = calibrated_ ? options.n_parallel : 1;
      while (static_cast<int>(inflight.size()) < cap && launch_one()) {
      }
      if (inflight.empty()) break;
      commit_front();
    }
    // Drain: runs after a normal exit AND after a Preempt/Cancel break, so
    // an interrupted search always stops at a clean trial boundary with an
    // empty in-flight list — exactly the state checkpoint_to() snapshots.
    while (!inflight.empty()) commit_front();
  }

  if (interrupt_ != SearchSignal::Run) {
    // Cooperative stop (preempt/cancel): no final model, no ensemble, no
    // run_summary — the segment may continue later via resume_from().
    // elapsed_seconds_ keeps its last-commit value so checkpoint_to()
    // writes exactly what the after-commit auto-writer would have written
    // at this boundary (the contract stress_resume proves byte-exact).
    if (tracer) {
      JsonValue fields = JsonValue::make_object();
      fields.set("signal", JsonValue::make_string(search_signal_name(interrupt_)));
      fields.set("iteration", JsonValue::make_number(iteration_));
      fields.set("elapsed_seconds", JsonValue::make_number(elapsed_seconds_));
      tracer.emit("run_interrupted", std::move(fields));
    }
    return;
  }

  // --- Final model ---
  if (best_learner_.empty()) {
    // Budget too small for even one trial: fall back to the fastest
    // learner's initial configuration so predict() always works.
    LearnerState& state = states_[fastest];
    best_learner_ = state.learner->name();
    best_config_ = state.space->initial_config();
    best_sample_size_ = init_sample;
  }
  for (auto& state : states_) {
    if (state.learner->name() == best_learner_) {
      // With retrain_full the final fit uses all training rows; otherwise
      // only the best trial's sample size (cheaper, slightly less accurate).
      if (options.retrain_full) {
        best_model_ = runner_->train_final(*state.learner, best_config_, 2.0 * budget);
      } else {
        TrainContext ctx;
        DataView all_rows(data);
        ctx.train = all_rows.prefix(std::max<std::size_t>(best_sample_size_, 2));
        ctx.seed = options.seed;
        ctx.n_threads = options.n_threads;
        best_model_ = state.learner->train(ctx, best_config_);
      }
      break;
    }
  }
  FLAML_CHECK(best_model_ != nullptr);

  if (options.enable_ensemble) {
    // Simplified stacked ensemble (paper appendix): blend the per-learner
    // best models with weights decaying in validation error.
    std::vector<std::pair<double, const LearnerState*>> ranked;
    for (const auto& state : states_) {
      if (std::isfinite(state.best_error)) ranked.emplace_back(state.best_error, &state);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [error, state] : ranked) {
      ensemble_models_.push_back(
          runner_->train_final(*state->learner, state->best_config, budget));
      ensemble_weights_.push_back(1.0 / (1.0 + error - ranked.front().first));
    }
    double total = 0.0;
    for (double w : ensemble_weights_) total += w;
    for (double& w : ensemble_weights_) w /= total;
  }

  if (tracer) {
    JsonValue config = JsonValue::make_object();
    for (const auto& [name, value] : best_config_) {
      config.set(name, JsonValue::make_number(value));
    }
    JsonValue fields = JsonValue::make_object();
    fields.set("n_trials",
               JsonValue::make_number(static_cast<double>(history_.size())));
    fields.set("best_learner", JsonValue::make_string(best_learner_));
    fields.set("best_error", observe::json_error_field(best_error_));
    fields.set("best_config", std::move(config));
    fields.set("best_sample_size",
               JsonValue::make_number(static_cast<double>(best_sample_size_)));
    fields.set("resampling", JsonValue::make_string(resampling_name(resampling)));
    fields.set("elapsed_seconds", JsonValue::make_number(elapsed()));
    fields.set("metrics", metrics_.to_json());
    tracer.emit("run_summary", std::move(fields));
  }
  elapsed_seconds_ = elapsed();
}

resume::SearchCheckpoint AutoML::make_checkpoint(
    const std::vector<resume::PendingTrial>& pending, bool include_model) const {
  resume::SearchCheckpoint ckpt;
  ckpt.task = task_name(data_->task());
  ckpt.metric = metric_name_;
  ckpt.seed = seed_;
  ckpt.resampling = resampling_name(resampling_used_);
  ckpt.iteration = static_cast<std::uint64_t>(iteration_);
  ckpt.calibrated = calibrated_;
  ckpt.elapsed_seconds = elapsed_seconds_;
  ckpt.rng = resume::json_rng(rng_);
  // The checkpoint's best is the SEARCH-found best: when no trial succeeded,
  // best_learner_ may still name the fallback (fastest learner, initial
  // config) after fit() returns — a resume re-derives that fallback itself.
  if (std::isfinite(best_error_)) {
    ckpt.best_learner = best_learner_;
    ckpt.best_error = best_error_;
    ckpt.best_sample_size = best_sample_size_;
    ckpt.best_config = best_config_;
  }
  for (const LearnerState& state : states_) {
    resume::LearnerCheckpoint l;
    l.name = state.learner->name();
    l.eci = state.eci.to_json();
    l.tuner = state.tuner->to_json();
    l.sample_size = state.sample_size;
    l.best_error = state.best_error;
    l.best_config = state.best_config;
    l.n_proposed = state.n_proposed;
    ckpt.learners.push_back(std::move(l));
  }
  ckpt.pending = pending;
  ckpt.history = history_;
  ckpt.runner = runner_->to_json();
  ckpt.metrics = metrics_.state_to_json();
  ckpt.racing = racing_monitor_.to_json();
  if (include_model && best_model_ != nullptr && ensemble_models_.empty()) {
    try {
      std::ostringstream blob;
      save_best_model(blob);
      ckpt.model_blob = blob.str();
    } catch (const InvalidArgument&) {
      // Custom learners without model serialization still get a full search
      // checkpoint — just no predictor blob (same as ensemble mode).
    }
  }
  return ckpt;
}

resume::SearchCheckpoint AutoML::checkpoint_to() const {
  FLAML_REQUIRE(runner_ != nullptr, "checkpoint_to() before fit()");
  return make_checkpoint({}, true);
}

void AutoML::checkpoint_to_file(const std::string& path) const {
  checkpoint_to().save(path);
}

Predictions AutoML::predict(const DataView& view) const {
  FLAML_REQUIRE(best_model_ != nullptr, "predict() before fit()");
  if (ensemble_models_.empty()) return best_model_->predict(view);
  // Weighted average of ensemble member predictions.
  Predictions blended = ensemble_models_[0]->predict(view);
  for (double& v : blended.values) v *= ensemble_weights_[0];
  for (std::size_t m = 1; m < ensemble_models_.size(); ++m) {
    Predictions p = ensemble_models_[m]->predict(view);
    FLAML_CHECK(p.values.size() == blended.values.size());
    for (std::size_t i = 0; i < p.values.size(); ++i) {
      blended.values[i] += ensemble_weights_[m] * p.values[i];
    }
  }
  return blended;
}

void AutoML::save_best_model(std::ostream& out) const {
  FLAML_REQUIRE(best_model_ != nullptr, "save_best_model() before fit()");
  FLAML_REQUIRE(ensemble_models_.empty(),
                "ensemble models are not serializable; disable enable_ensemble");
  out << "flaml-model v1 " << best_learner_ << '\n';
  best_model_->save(out);
}

void AutoML::save_best_model_file(const std::string& path) const {
  std::ostringstream out;
  save_best_model(out);
  write_file_durable(path, out.str());
}

std::unique_ptr<Model> load_automl_model(std::istream& in,
                                         const std::vector<LearnerPtr>& extra_learners) {
  std::string magic, version, learner_name;
  in >> magic >> version >> learner_name;
  FLAML_REQUIRE(magic == "flaml-model" && version == "v1",
                "bad flaml model header");
  for (const auto& l : extra_learners) {
    if (l->name() == learner_name) return l->load_model(in);
  }
  return builtin_learner(learner_name)->load_model(in);
}

std::unique_ptr<Model> load_automl_model_file(
    const std::string& path, const std::vector<LearnerPtr>& extra_learners) {
  std::ifstream in(path);
  FLAML_REQUIRE(in.good(), "cannot open model file '" << path << "'");
  return load_automl_model(in, extra_learners);
}

void write_history_csv(std::ostream& out, const TrialHistory& history) {
  out << "iteration,finished_at,learner,sample_size,cost,error,best_error,config\n";
  out.precision(12);
  for (const auto& r : history) {
    out << r.iteration << ',' << r.finished_at << ',' << r.learner << ','
        << r.sample_size << ',' << r.cost << ',' << r.error << ','
        << r.best_error_so_far << ',';
    bool first = true;
    for (const auto& [name, value] : r.config) {
      out << (first ? "" : "|") << name << '=' << value;
      first = false;
    }
    out << '\n';
  }
}

std::vector<std::pair<std::string, double>> AutoML::per_learner_best() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(states_.size());
  for (const auto& state : states_) {
    out.emplace_back(state.learner->name(), state.best_error);
  }
  return out;
}

}  // namespace flaml
