// Golden end-to-end search regression: a fixed-seed stub-lineup search is a
// pure function of its options, so its ENTIRE trial history — every learner
// choice, config, sample size and the exact double bits of every error and
// cost — can be pinned as one FNV-1a digest. Any unintended change to the
// proposer, FLOW2, the ECI bookkeeping, the RNG, the sample schedule or the
// trial runner shows up here as a digest mismatch, with the full history
// printed for diffing.
//
// If a change to the search loop is INTENTIONAL, re-pin the constants below
// from the test's failure output and call the change out in the PR.
#include "automl/automl.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "support/history_digest.h"
#include "support/resume_test_util.h"

namespace flaml {
namespace {

using testing::add_resume_lineup;
using testing::canonical_history;
using testing::expect_history_digest;
using testing::history_digest;
using testing::resume_options;
using testing::resume_tiny_binary;

void expect_golden(const AutoML& automl, std::uint64_t expected_digest,
                   const std::string& expected_best_learner,
                   const std::string& what) {
  EXPECT_EQ(automl.best_learner(), expected_best_learner) << what;
  expect_history_digest(automl.history(), expected_digest, what);
}

// Pinned digests of the seed-42, 15-trial stub search (serial and
// n_parallel=2). Re-pin ONLY for intentional search-behavior changes.
constexpr std::uint64_t kSerialDigest = 0xfdd0fbff7852ce12ULL;
constexpr const char* kSerialBestLearner = "stub_fast";
constexpr std::uint64_t kParallelDigest = 0x2ef12b227d53ce3eULL;
constexpr const char* kParallelBestLearner = "stub_fast";

TEST(GoldenSearch, SerialHistoryDigestIsPinned) {
  const Dataset data = resume_tiny_binary(1001);
  AutoML automl;
  add_resume_lineup(automl);
  automl.fit(data, resume_options(42, 15));
  ASSERT_EQ(automl.history().size(), 15u);
  expect_golden(automl, kSerialDigest, kSerialBestLearner, "serial golden");
}

TEST(GoldenSearch, ParallelHistoryDigestIsPinned) {
  const Dataset data = resume_tiny_binary(1001);
  AutoMLOptions options = resume_options(42, 15);
  options.n_parallel = 2;
  AutoML automl;
  add_resume_lineup(automl);
  automl.fit(data, options);
  ASSERT_EQ(automl.history().size(), 15u);
  expect_golden(automl, kParallelDigest, kParallelBestLearner,
                "parallel golden");
}

// ---------------------------------------------------------------------------
// Real-learner goldens. The stub lineup never bins data, so these runs use
// the real tree learners and pin the whole production tree path — binning,
// packed histogram kernels, both growers — plus run-to-run and
// n_parallel=1 vs 2 determinism. The packed kernels are bit-identical to
// the scalar reference builds (src/tree/histogram.h); a mismatch after a
// kernel-only change is a bit-identity bug — never re-pin around it. Re-pin
// only for intentional changes to the search loop or the tree learners.
// Every trial takes its binned substrates and CV folds from the runner's
// substrate cache. The digests were pinned from runs that re-binned every
// trial from scratch, so they also prove the cache transparent: a mismatch
// may mean a cached substrate or fold went stale.

// Pure function of (learner, config, sample size): runs at any n_parallel
// see identical costs, so a history divergence can only come from the
// search loop or the trained models themselves.
TrialCostModel real_cost_model() {
  return [](const Learner& learner, const Config& config,
            std::size_t sample_size) {
    double config_sum = 0.0;
    for (const auto& [name, value] : config) config_sum += std::abs(value);
    return learner.initial_cost_multiplier() *
               (0.05 + 0.001 * static_cast<double>(sample_size)) +
           1e-6 * config_sum;
  };
}

AutoMLOptions real_options(ResamplingPolicy resampling,
                           std::size_t n_parallel) {
  AutoMLOptions options;
  options.time_budget_seconds = 1e6;  // iteration budget terminates, not time
  options.max_iterations = 10;
  options.initial_sample_size = 32;
  options.resampling = resampling;
  options.estimator_list = {"lgbm", "rf"};
  options.trial_cost_model = real_cost_model();
  options.seed = 7;
  options.n_parallel = n_parallel;
  return options;
}

std::uint64_t real_search_digest(ResamplingPolicy resampling,
                                 std::size_t n_parallel) {
  const Dataset data = resume_tiny_binary(2024);
  AutoML automl;
  automl.fit(data, real_options(resampling, n_parallel));
  EXPECT_FALSE(automl.history().empty());
  return history_digest(automl.history());
}

// Pinned digests of the seed-7 real-learner searches, one per resampling
// policy and n_parallel.
constexpr std::uint64_t kRealSerialDigest = 0x4761dfa18c7e2d32ULL;
constexpr std::uint64_t kRealParallelDigest = 0x7ba5ed9c505cf6f1ULL;
constexpr std::uint64_t kRealCvSerialDigest = 0xc18e12fc77a1f789ULL;
constexpr std::uint64_t kRealCvParallelDigest = 0x37d4345c0c8a7315ULL;

void expect_digest(std::uint64_t got, std::uint64_t want,
                   const std::string& what) {
  std::ostringstream g, w;
  g << std::hex << got;
  w << std::hex << want;
  EXPECT_EQ(g.str(), w.str())
      << what << ": the real-learner search history changed. If the search "
      << "or the learners changed intentionally, re-pin; if only the "
      << "histogram kernels changed, this is a bit-identity bug.";
}

TEST(GoldenSearch, RealLearnerDigestSerial) {
  const ResamplingPolicy holdout = ResamplingPolicy::ForceHoldout;
  expect_digest(real_search_digest(holdout, 1), kRealSerialDigest,
                "serial run 1");
  expect_digest(real_search_digest(holdout, 1), kRealSerialDigest,
                "serial run 2");
}

TEST(GoldenSearch, RealLearnerDigestParallel) {
  const ResamplingPolicy holdout = ResamplingPolicy::ForceHoldout;
  expect_digest(real_search_digest(holdout, 2), kRealParallelDigest,
                "parallel run 1");
  expect_digest(real_search_digest(holdout, 2), kRealParallelDigest,
                "parallel run 2");
}

TEST(GoldenSearch, RealLearnerCvDigestSerial) {
  expect_digest(real_search_digest(ResamplingPolicy::ForceCV, 1),
                kRealCvSerialDigest, "cv serial");
}

TEST(GoldenSearch, RealLearnerCvDigestParallel) {
  expect_digest(real_search_digest(ResamplingPolicy::ForceCV, 2),
                kRealCvParallelDigest, "cv parallel");
}

// ---------------------------------------------------------------------------
// Substrate-cache transparency goldens. In the warm run every trial takes its
// binned substrates and CV folds from the one runner cache that earlier
// trials filled. The cold run crashes after every committed trial and each
// segment resumes from the checkpoint into a fresh AutoML, whose runner
// starts with an empty cache, so its trials bin their data from scratch
// (with n_parallel=2 the replayed in-flight trial and the next launch share
// a segment). A cached substrate is byte-identical to a fresh fit+encode, so
// the two histories must match record for record; any divergence is a stale
// or wrong cache entry — a correctness bug, not something to re-pin.

std::unique_ptr<AutoML> cold_per_trial_search(const Dataset& data,
                                              AutoMLOptions options,
                                              const std::string& checkpoint,
                                              const std::string& what) {
  std::size_t kill_at = 1;
  testing::arm_kill(options, checkpoint, kill_at);
  auto automl = std::make_unique<AutoML>();
  try {
    automl->fit(data, options);
    ADD_FAILURE() << what << ": the search never reached boundary 1";
    return automl;
  } catch (const testing::KillSignal&) {
  }
  for (;;) {
    testing::arm_kill(options, checkpoint, ++kill_at);
    automl = std::make_unique<AutoML>();
    try {
      automl->resume_from_file(data, options, checkpoint);
      return automl;  // the last boundary was already past: search finished
    } catch (const testing::KillSignal&) {
    }
  }
}

// A longer search from a smaller first sample than the digest runs, so the
// samples of both learners grow and cached folds of several sizes are live
// at once.
AutoMLOptions transparency_options(ResamplingPolicy resampling,
                                   std::size_t n_parallel) {
  AutoMLOptions options = real_options(resampling, n_parallel);
  options.max_iterations = 16;
  options.initial_sample_size = 16;
  return options;
}

void expect_cache_transparent(ResamplingPolicy resampling,
                              std::size_t n_parallel, const std::string& what) {
  const Dataset data = resume_tiny_binary(2024);
  const AutoMLOptions options = transparency_options(resampling, n_parallel);
  AutoML warm;
  warm.fit(data, options);
  const std::unique_ptr<AutoML> cold = cold_per_trial_search(
      data, options,
      ::testing::TempDir() + "cache_transparent_" + std::to_string(n_parallel) +
          "_" + std::to_string(static_cast<int>(resampling)) + ".ckpt",
      what);
  ASSERT_FALSE(warm.history().empty()) << what;
  testing::expect_resume_histories_equal(cold->history(), warm.history(),
                                         what);
  std::ostringstream got;
  got << std::hex << history_digest(warm.history());
  std::ostringstream want;
  want << std::hex << history_digest(cold->history());
  EXPECT_EQ(got.str(), want.str())
      << what << ": serving substrates from the cache changed the search "
      << "history — the substrate cache must be byte-transparent.\nWarm "
      << "history:\n" << canonical_history(warm.history())
      << "Cold history:\n" << canonical_history(cold->history());
  EXPECT_EQ(warm.best_learner(), cold->best_learner()) << what;
  EXPECT_DOUBLE_EQ(warm.best_error(), cold->best_error()) << what;
  // The warm run actually served trials from its cache.
  EXPECT_GT(warm.metrics().value("substrate_cache.hits"), 0.0) << what;
}

TEST(GoldenSearch, SubstrateCacheTransparentHoldoutSerial) {
  expect_cache_transparent(ResamplingPolicy::ForceHoldout, 1,
                           "holdout serial");
}

TEST(GoldenSearch, SubstrateCacheTransparentCvSerial) {
  expect_cache_transparent(ResamplingPolicy::ForceCV, 1, "cv serial");
}

TEST(GoldenSearch, SubstrateCacheTransparentHoldoutParallel) {
  expect_cache_transparent(ResamplingPolicy::ForceHoldout, 2,
                           "holdout parallel");
}

TEST(GoldenSearch, SubstrateCacheTransparentCvParallel) {
  expect_cache_transparent(ResamplingPolicy::ForceCV, 2, "cv parallel");
}

}  // namespace
}  // namespace flaml
