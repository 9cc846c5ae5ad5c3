// Shared fixtures for the checkpoint/resume suites (tests/test_resume.cpp
// and tests/stress/stress_resume.cpp): a tiny seeded dataset, the stub
// learner lineup with a deterministic cost model (the whole search is a pure
// function of the seed), a kill-at-trial-k fault injector, and comparators
// asserting that a resumed run is indistinguishable from an uninterrupted
// one — identical trial history (modulo wall-clock finished_at), identical
// best, identical metrics totals (modulo wall-clock time_to_best_seconds).
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "automl/automl.h"
#include "data/generators.h"
#include "support/stub_learner.h"

namespace flaml::testing {

inline Dataset resume_tiny_binary(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.task = Task::BinaryClassification;
  spec.n_rows = 100;
  spec.n_features = 5;
  spec.seed = seed;
  return make_classification(spec);
}

// Deterministic trial cost: a pure function of (learner, config, sample
// size), so the ECI bookkeeping — and through it the whole search — is
// seed-pure and a resumed run can be compared record-for-record.
inline TrialCostModel resume_cost_model() {
  return [](const Learner& learner, const Config& config, std::size_t sample_size) {
    return learner.initial_cost_multiplier() *
           (0.05 + 0.001 * static_cast<double>(sample_size) +
            0.002 * config.at("units"));
  };
}

inline void add_resume_lineup(AutoML& automl) {
  automl.add_learner(std::make_shared<StubLearner>("stub_fast", 1.0));
  automl.add_learner(std::make_shared<StubLearner>("stub_mid", 1.9));
  automl.add_learner(std::make_shared<StubLearner>("stub_slow", 15.0));
}

inline AutoMLOptions resume_options(std::uint64_t seed, std::size_t max_iterations) {
  AutoMLOptions options;
  options.time_budget_seconds = 1e6;  // iteration budget terminates, not time
  options.max_iterations = max_iterations;
  options.initial_sample_size = 16;
  options.resampling = ResamplingPolicy::ForceHoldout;
  options.estimator_list = {"stub_fast", "stub_mid", "stub_slow"};
  options.trial_cost_model = resume_cost_model();
  options.seed = seed;
  return options;
}

// The simulated crash: thrown from AutoMLOptions::on_trial_committed at a
// chosen trial boundary, after the checkpoint for that boundary was written.
struct KillSignal {
  std::size_t at_iteration = 0;
};

// Arm `options` to checkpoint after EVERY commit and crash at boundary k.
inline void arm_kill(AutoMLOptions& options, const std::string& checkpoint_path,
                     std::size_t kill_at) {
  options.checkpoint_path = checkpoint_path;
  options.checkpoint_every_n_trials = 1;
  options.on_trial_committed = [kill_at](std::size_t iteration) {
    if (iteration == kill_at) throw KillSignal{iteration};
  };
}

inline void expect_resume_records_equal(const TrialRecord& a, const TrialRecord& b,
                                        const std::string& what) {
  EXPECT_EQ(a.iteration, b.iteration) << what;
  EXPECT_EQ(a.learner, b.learner) << what;
  EXPECT_EQ(a.config, b.config) << what;
  EXPECT_EQ(a.sample_size, b.sample_size) << what;
  EXPECT_DOUBLE_EQ(a.error, b.error) << what;
  EXPECT_DOUBLE_EQ(a.cost, b.cost) << what;
  EXPECT_DOUBLE_EQ(a.best_error_so_far, b.best_error_so_far) << what;
  // finished_at is wall-clock and intentionally excluded.
}

inline void expect_resume_histories_equal(const TrialHistory& a,
                                          const TrialHistory& b,
                                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_resume_records_equal(a[i], b[i], what + " record " + std::to_string(i));
  }
}

// The run_summary totals: every counter/gauge except the wall-clock
// time_to_best_seconds, plus full histogram state (bucket counts round-trip
// through the checkpoint, so percentiles must match exactly too).
inline void expect_resume_metrics_equal(const observe::MetricsRegistry& a,
                                        const observe::MetricsRegistry& b,
                                        const std::string& what) {
  const JsonValue ja = a.state_to_json();
  const JsonValue jb = b.state_to_json();
  // Process-local scalars that legitimately differ between an interrupted
  // and an uninterrupted run: wall-clock, and the substrate cache's
  // hit/miss/bytes counters (the cache is rebuilt on demand, so a resumed
  // run starts cold and re-counts misses the original run already paid).
  const auto skip_scalar = [](const std::string& name) {
    return name == "time_to_best_seconds" ||
           name.rfind("substrate_cache.", 0) == 0;
  };
  const JsonValue& scalars_a = ja.at("scalars");
  const JsonValue& scalars_b = jb.at("scalars");
  const auto count_compared = [&](const JsonValue& scalars) {
    std::size_t n = 0;
    for (const auto& [name, value] : scalars.object) {
      if (!skip_scalar(name)) ++n;
    }
    return n;
  };
  ASSERT_EQ(count_compared(scalars_a), count_compared(scalars_b)) << what;
  for (const auto& [name, value] : scalars_a.object) {
    if (skip_scalar(name)) continue;
    const JsonValue* other = scalars_b.find(name);
    ASSERT_NE(other, nullptr) << what << " scalar " << name;
    EXPECT_DOUBLE_EQ(value.number, other->number) << what << " scalar " << name;
  }
  // Histogram state is exact (sum/min/max and every bucket count), so its
  // serialized form must match byte for byte.
  EXPECT_EQ(dump_json_compact(ja.at("histograms")),
            dump_json_compact(jb.at("histograms")))
      << what;
}

// Full crash-equivalence assertion against a reference AutoML that ran
// uninterrupted.
inline void expect_resumed_equals_reference(const AutoML& resumed,
                                            const AutoML& reference,
                                            const std::string& what) {
  expect_resume_histories_equal(resumed.history(), reference.history(), what);
  EXPECT_DOUBLE_EQ(resumed.best_error(), reference.best_error()) << what;
  EXPECT_EQ(resumed.best_learner(), reference.best_learner()) << what;
  EXPECT_EQ(resumed.best_config(), reference.best_config()) << what;
  EXPECT_EQ(resumed.best_sample_size(), reference.best_sample_size()) << what;
  expect_resume_metrics_equal(resumed.metrics(), reference.metrics(), what);
}

}  // namespace flaml::testing
