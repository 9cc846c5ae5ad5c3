// The cross-trial binned-substrate cache (src/automl/substrate_cache.h):
// exact-row keying, hit/miss/bytes accounting, memoized CV folds, the
// trainers' accept-or-rebin guard, and — the contract everything rests on —
// byte-identity between cached and freshly built substrates and between
// models trained with and without a provider.
#include "automl/substrate_cache.h"

#include <gtest/gtest.h>

#include <sstream>

#include "automl/trial_runner.h"
#include "boosting/gbdt.h"
#include "data/generators.h"
#include "forest/forest.h"
#include "learners/registry.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "support/prop.h"
#include "tree/histogram.h"

namespace flaml {
namespace {

Dataset binary_data(std::size_t n = 300, std::uint64_t seed = 11) {
  SyntheticSpec spec;
  spec.task = Task::BinaryClassification;
  spec.n_rows = n;
  spec.n_features = 5;
  spec.seed = seed;
  return make_classification(spec);
}

void expect_packed_equal(const PackedBins& a, const PackedBins& b,
                         const std::string& what) {
  ASSERT_EQ(a.n_rows(), b.n_rows()) << what;
  ASSERT_EQ(a.n_features(), b.n_features()) << what;
  ASSERT_EQ(a.wide(), b.wide()) << what;
  for (std::size_t r = 0; r < a.n_rows(); ++r) {
    for (std::size_t f = 0; f < a.n_features(); ++f) {
      ASSERT_EQ(a.bin(r, f), b.bin(r, f))
          << what << " row " << r << " feature " << f;
    }
  }
}

void expect_substrates_equal(const BinnedSubstrate& a, const BinnedSubstrate& b,
                             const std::string& what) {
  EXPECT_EQ(a.max_bin, b.max_bin) << what;
  ASSERT_EQ(a.mapper.n_features(), b.mapper.n_features()) << what;
  for (std::size_t f = 0; f < a.mapper.n_features(); ++f) {
    const FeatureBins& fa = a.mapper.feature(f);
    const FeatureBins& fb = b.mapper.feature(f);
    EXPECT_EQ(fa.n_value_bins, fb.n_value_bins) << what << " feature " << f;
    EXPECT_EQ(fa.edges, fb.edges) << what << " feature " << f;
  }
  expect_packed_equal(a.packed, b.packed, what);
}

TEST(SubstrateCache, PrefixMatchesFreshBuildExactly) {
  Dataset data = binary_data(250);
  DataView view(data);
  SubstrateCache cache(&view, 7, observe::Tracer(), nullptr);
  for (std::size_t s : {10u, 40u, 250u}) {
    for (int max_bin : {15, 255}) {
      auto cached = cache.prefix(s, max_bin);
      ASSERT_NE(cached, nullptr);
      BinnedSubstrate fresh = build_substrate(view.prefix(s), max_bin);
      expect_substrates_equal(*cached, fresh,
                              "prefix s=" + std::to_string(s) + " max_bin=" +
                                  std::to_string(max_bin));
    }
  }
}

TEST(SubstrateCache, HitMissAndBytesCounters) {
  Dataset data = binary_data(200);
  DataView view(data);
  observe::MetricsRegistry metrics;
  SubstrateCache cache(&view, 7, observe::Tracer(), &metrics);

  auto a = cache.prefix(100, 255);  // miss
  auto b = cache.prefix(100, 255);  // hit: same key
  EXPECT_EQ(a.get(), b.get());      // the SAME shared substrate
  cache.prefix(100, 63);            // miss: different max_bin
  cache.prefix(50, 255);            // miss: different rows

  const SubstrateCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 3u);
  // 3 substrates of 100/100/50 rows × 5 features, each exactly one byte
  // per cell: the packed codes are the whole substrate, and every code is
  // ≤ 255 at these bin budgets.
  EXPECT_EQ(c.bytes, (100u + 100u + 50u) * 5u);
  EXPECT_EQ(a->bytes(), 100u * 5u);
  EXPECT_EQ(a->binned.n_rows(), 0u);  // no column layout is built
  EXPECT_DOUBLE_EQ(metrics.value("substrate_cache.hits"), 1.0);
  EXPECT_DOUBLE_EQ(metrics.value("substrate_cache.misses"), 3.0);
  EXPECT_DOUBLE_EQ(metrics.value("substrate_cache.bytes"),
                   static_cast<double>(c.bytes));
}

TEST(SubstrateCache, FoldsMemoizedAndEqualToFreshSplit) {
  Dataset data = binary_data(120);
  DataView view(data);
  const std::uint64_t fold_seed = 12345;
  SubstrateCache cache(&view, fold_seed, observe::Tracer(), nullptr);

  auto folds_a = cache.folds(80, 4);
  auto folds_b = cache.folds(80, 4);
  EXPECT_EQ(folds_a.get(), folds_b.get());  // memoized, not re-split

  Rng rng(fold_seed);
  std::vector<Fold> fresh = kfold_split(view.prefix(80), 4, rng);
  ASSERT_EQ(folds_a->size(), fresh.size());
  for (std::size_t f = 0; f < fresh.size(); ++f) {
    EXPECT_EQ((*folds_a)[f].train.rows(), fresh[f].train.rows()) << "fold " << f;
    EXPECT_EQ((*folds_a)[f].valid.rows(), fresh[f].valid.rows()) << "fold " << f;
  }
}

TEST(SubstrateCache, FoldTrainMatchesFreshBuildOnFoldRows) {
  Dataset data = binary_data(150);
  DataView view(data);
  const std::uint64_t fold_seed = 99;
  SubstrateCache cache(&view, fold_seed, observe::Tracer(), nullptr);

  const int k = 3;
  auto folds = cache.folds(90, k);
  for (int f = 0; f < k; ++f) {
    auto cached = cache.fold_train(90, k, f, 127);
    BinnedSubstrate fresh =
        build_substrate((*folds)[static_cast<std::size_t>(f)].train, 127);
    expect_substrates_equal(*cached, fresh, "fold " + std::to_string(f));
  }
}

TEST(SubstrateCache, BuildEmitsTraceEvents) {
  Dataset data = binary_data(100);
  DataView view(data);
  auto sink = std::make_shared<observe::MemoryTraceSink>();
  SubstrateCache cache(&view, 7, observe::Tracer(sink), nullptr);
  cache.prefix(60, 255);
  cache.prefix(60, 255);  // hit: no second event
  cache.folds(60, 3);
  cache.fold_train(60, 3, 1, 255);

  auto events = sink->of_type("substrate_cache");
  ASSERT_EQ(events.size(), 2u);  // one prefix build + one fold build
  EXPECT_EQ(events[0].fields.at("scope").str, "prefix");
  EXPECT_DOUBLE_EQ(events[0].fields.at("sample_size").number, 60.0);
  EXPECT_DOUBLE_EQ(events[0].fields.at("max_bin").number, 255.0);
  EXPECT_GT(events[0].fields.at("bytes").number, 0.0);
  EXPECT_EQ(events[1].fields.at("scope").str, "fold");
  EXPECT_DOUBLE_EQ(events[1].fields.at("k").number, 3.0);
  EXPECT_DOUBLE_EQ(events[1].fields.at("fold").number, 1.0);
  EXPECT_GE(events[1].fields.at("total_bytes").number,
            events[1].fields.at("bytes").number);
}

// --- Trainer integration: provider == no provider, byte for byte ---

TEST(SubstrateCache, GbdtWithProviderIsByteIdentical) {
  Dataset data = binary_data(220);
  DataView view(data);
  SubstrateCache cache(&view, 7, observe::Tracer(), nullptr);

  GBDTParams params;
  params.n_trees = 10;
  params.max_leaves = 8;
  params.max_bin = 63;
  params.seed = 5;
  const std::string plain = train_gbdt(view, nullptr, params).to_string();

  params.substrate = [&](int max_bin) { return cache.prefix(220, max_bin); };
  const std::string cached = train_gbdt(view, nullptr, params).to_string();
  EXPECT_EQ(plain, cached);
  EXPECT_EQ(cache.counters().misses, 1u);  // the provider was consulted
}

TEST(SubstrateCache, ForestWithProviderIsByteIdentical) {
  Dataset data = binary_data(220);
  DataView view(data);
  SubstrateCache cache(&view, 7, observe::Tracer(), nullptr);

  ForestParams params;
  params.n_trees = 8;
  params.max_leaves = 16;
  params.seed = 5;
  const auto save_text = [](const ForestModel& model) {
    std::ostringstream os;
    model.save(os);
    return os.str();
  };
  const std::string plain = save_text(train_forest(view, params));

  params.substrate = [&](int max_bin) { return cache.prefix(220, max_bin); };
  const std::string cached = save_text(train_forest(view, params));
  EXPECT_EQ(plain, cached);
}

TEST(SubstrateCache, TrainerGuardRejectsMismatchedSubstrate) {
  Dataset data = binary_data(200);
  DataView view(data);
  // A provider serving the WRONG substrate (different rows / different
  // max_bin) must be ignored — the trainer falls back to a fresh fit and
  // the model is unchanged.
  auto wrong_rows = std::make_shared<const BinnedSubstrate>(
      build_substrate(view.prefix(100), 255));
  auto wrong_bins = std::make_shared<const BinnedSubstrate>(
      build_substrate(view, 31));

  GBDTParams params;
  params.n_trees = 6;
  params.max_leaves = 8;
  params.max_bin = 255;
  params.seed = 3;
  const std::string plain = train_gbdt(view, nullptr, params).to_string();

  params.substrate = [&](int) { return wrong_rows; };
  EXPECT_EQ(train_gbdt(view, nullptr, params).to_string(), plain);
  params.substrate = [&](int) { return wrong_bins; };
  EXPECT_EQ(train_gbdt(view, nullptr, params).to_string(), plain);
  params.substrate = [&](int) {
    return std::shared_ptr<const BinnedSubstrate>();  // provider declines
  };
  EXPECT_EQ(train_gbdt(view, nullptr, params).to_string(), plain);
}

// --- TrialRunner integration ---

TEST(SubstrateCache, RunnerReusesSubstrateAcrossTrials) {
  Dataset data = binary_data(400);
  TrialRunner::Options options;
  options.resampling = Resampling::Holdout;
  TrialRunner runner(data, ErrorMetric::default_for(data.task()), options);
  ASSERT_NE(runner.substrate_cache(), nullptr);
  LearnerPtr learner = builtin_learner("lgbm");
  Config config =
      learner->space(data.task(), runner.max_sample_size()).initial_config();

  TrialResult first = runner.run(*learner, config, 200, 0.0, 1);
  const auto after_first = runner.substrate_cache()->counters();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GT(after_first.misses, 0u);

  TrialResult second = runner.run(*learner, config, 200, 0.0, 1);
  const auto after_second = runner.substrate_cache()->counters();
  EXPECT_GT(after_second.hits, 0u);
  EXPECT_EQ(after_second.misses, after_first.misses);
  // Same salt, same sample: the trials are identical either way.
  EXPECT_DOUBLE_EQ(first.error, second.error);
}

TEST(SubstrateCache, RunnerCacheOnOffTrialsIdentical) {
  Dataset data = binary_data(360);
  for (Resampling mode : {Resampling::Holdout, Resampling::CV}) {
    TrialRunner::Options on;
    on.resampling = mode;
    TrialRunner::Options off = on;
    off.reuse_binned_data = false;
    TrialRunner runner_on(data, ErrorMetric::default_for(data.task()), on);
    TrialRunner runner_off(data, ErrorMetric::default_for(data.task()), off);
    EXPECT_EQ(runner_off.substrate_cache(), nullptr);
    for (const char* name : {"lgbm", "rf"}) {
      LearnerPtr learner = builtin_learner(name);
      Config config =
          learner->space(data.task(), runner_on.max_sample_size())
              .initial_config();
      for (std::size_t s : {90u, 180u, 180u}) {  // repeat exercises a hit
        TrialResult a = runner_on.run(*learner, config, s, 0.0, 7);
        TrialResult b = runner_off.run(*learner, config, s, 0.0, 7);
        EXPECT_DOUBLE_EQ(a.error, b.error)
            << name << " s=" << s << " mode=" << resampling_name(mode);
      }
    }
    EXPECT_GT(runner_on.substrate_cache()->counters().hits, 0u);
  }
}

// --- Properties ---

// Cached prefix and fold substrates are bit-identical to a fresh fit+encode
// on the same rows, for random shapes, sample sizes, fold counts and bin
// budgets.
FLAML_PROP(SubstrateCacheProp, CachedEqualsFreshOnSameRows, 25) {
  SyntheticSpec spec;
  spec.task = prop.rng.uniform() < 0.5 ? Task::BinaryClassification
                                       : Task::Regression;
  spec.n_rows = 30 + prop.rng.uniform_index(170);
  spec.n_features = 2 + static_cast<int>(prop.rng.uniform_index(6));
  spec.seed = prop.seed;
  Dataset data = make_synthetic(spec);
  DataView view(data);
  const std::uint64_t fold_seed = prop.rng.next();
  SubstrateCache cache(&view, fold_seed, observe::Tracer(), nullptr);

  const std::size_t s = 10 + prop.rng.uniform_index(view.n_rows() - 9);
  const int max_bin = 2 + static_cast<int>(prop.rng.uniform_index(300));
  auto cached = cache.prefix(s, max_bin);
  expect_substrates_equal(*cached, build_substrate(view.prefix(s), max_bin),
                          "prefix");

  const int k = choose_cv_k(view.prefix(s), 2 + static_cast<int>(
                                                    prop.rng.uniform_index(5)));
  if (k != 0) {
    const int f = static_cast<int>(prop.rng.uniform_index(
        static_cast<std::size_t>(k)));
    auto fold_sub = cache.fold_train(s, k, f, max_bin);
    Rng rng(fold_seed);
    std::vector<Fold> fresh = kfold_split(view.prefix(s), k, rng);
    expect_substrates_equal(
        *fold_sub,
        build_substrate(fresh[static_cast<std::size_t>(f)].train, max_bin),
        "fold");
  }
}

}  // namespace
}  // namespace flaml
