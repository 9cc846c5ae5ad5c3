// Substrate-cache concurrency stress: many threads hammering one
// SubstrateCache with overlapping keys must (a) never race (run under TSan),
// (b) agree on ONE shared entry per key — the same shared_ptr, built exactly
// once — and (c) serve contents bit-identical to a fresh single-threaded
// fit+encode. Then end-to-end: a PARALLEL CV search with the cache on must
// produce the same trial history as with it off, so cache contention in the
// real trial loop cannot leak into search results.
#include "automl/substrate_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "automl/automl.h"
#include "data/generators.h"
#include "support/prop.h"

namespace flaml {
namespace {

Dataset stress_binary(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.task = Task::BinaryClassification;
  spec.n_rows = 120;
  spec.n_features = 6;
  spec.seed = seed;
  return make_classification(spec);
}

void expect_substrates_identical(const BinnedSubstrate& a,
                                 const BinnedSubstrate& b,
                                 const std::string& what) {
  ASSERT_EQ(a.max_bin, b.max_bin) << what;
  ASSERT_EQ(a.packed.n_rows(), b.packed.n_rows()) << what;
  ASSERT_EQ(a.packed.n_features(), b.packed.n_features()) << what;
  ASSERT_EQ(a.packed.wide(), b.packed.wide()) << what;
  ASSERT_EQ(a.mapper.n_features(), b.mapper.n_features()) << what;
  for (std::size_t f = 0; f < a.packed.n_features(); ++f) {
    EXPECT_EQ(a.mapper.feature(f).n_value_bins, b.mapper.feature(f).n_value_bins)
        << what << " feature " << f;
    EXPECT_EQ(a.mapper.feature(f).edges, b.mapper.feature(f).edges)
        << what << " feature " << f;
    for (std::size_t r = 0; r < a.packed.n_rows(); ++r) {
      ASSERT_EQ(a.packed.bin(r, f), b.packed.bin(r, f))
          << what << " row " << r << " feature " << f;
    }
  }
}

// Every thread asks for every key several times; keys deliberately collide
// across threads so first-build races, hit-path races and folds/substrate
// interleavings are all exercised. Each thread records what it was served;
// the main thread then checks one identity per key and compares against
// uncached single-threaded builds.
TEST(SubstrateCacheStress, ParallelHammerServesOneIdenticalEntryPerKey) {
  const Dataset data = stress_binary(4242);
  const DataView view(data);
  SubstrateCache cache(&view, /*fold_seed=*/99, observe::Tracer(), nullptr);

  const std::vector<std::size_t> sizes = {40, 80, 120};
  const std::vector<int> bins = {15, 63, 255};
  constexpr int kFolds = 3;
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;

  using PrefixKey = std::tuple<std::size_t, int>;
  using FoldKey = std::tuple<std::size_t, int, int>;
  struct Served {
    std::map<PrefixKey, std::shared_ptr<const BinnedSubstrate>> prefixes;
    std::map<FoldKey, std::shared_ptr<const BinnedSubstrate>> fold_trains;
    std::map<std::size_t, std::shared_ptr<const std::vector<Fold>>> folds;
    bool stable = true;  // repeated lookups returned the same object
  };
  std::vector<Served> served(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Served& mine = served[t];
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t s : sizes) {
          auto folds = cache.folds(s, kFolds);
          auto [fit, fold_inserted] = mine.folds.emplace(s, folds);
          if (!fold_inserted && fit->second != folds) mine.stable = false;
          for (int b : bins) {
            auto sub = cache.prefix(s, b);
            auto [it, inserted] = mine.prefixes.emplace(PrefixKey{s, b}, sub);
            if (!inserted && it->second != sub) mine.stable = false;
            for (int f = 0; f < kFolds; ++f) {
              auto train = cache.fold_train(s, kFolds, f, b);
              auto [fi, fin] = mine.fold_trains.emplace(FoldKey{s, f, b}, train);
              if (!fin && fi->second != train) mine.stable = false;
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(served[t].stable) << "thread " << t;
    // All threads were served the SAME entry object per key.
    for (const auto& [key, sub] : served[t].prefixes) {
      EXPECT_EQ(sub, served[0].prefixes.at(key)) << "thread " << t;
    }
    for (const auto& [key, sub] : served[t].fold_trains) {
      EXPECT_EQ(sub, served[0].fold_trains.at(key)) << "thread " << t;
    }
    for (const auto& [key, folds] : served[t].folds) {
      EXPECT_EQ(folds, served[0].folds.at(key)) << "thread " << t;
    }
  }

  // Each entry was built exactly once: every lookup after the first per key
  // was a hit, and the contents equal a fresh single-threaded build.
  const SubstrateCache::Counters counters = cache.counters();
  const std::uint64_t n_keys = sizes.size() * bins.size() * (1 + kFolds);
  EXPECT_EQ(counters.misses, n_keys);
  EXPECT_EQ(counters.hits,
            static_cast<std::uint64_t>(kThreads) * kRounds *
                    (sizes.size() * bins.size() * (1 + kFolds)) -
                n_keys);

  for (std::size_t s : sizes) {
    for (int b : bins) {
      const BinnedSubstrate fresh = build_substrate(view.prefix(s), b);
      expect_substrates_identical(*served[0].prefixes.at(PrefixKey{s, b}), fresh,
                                  "prefix s=" + std::to_string(s) +
                                      " bins=" + std::to_string(b));
      const auto& folds = *served[0].folds.at(s);
      for (int f = 0; f < kFolds; ++f) {
        const BinnedSubstrate fold_fresh =
            build_substrate(folds[static_cast<std::size_t>(f)].train, b);
        expect_substrates_identical(
            *served[0].fold_trains.at(FoldKey{s, f, b}), fold_fresh,
            "fold s=" + std::to_string(s) + " f=" + std::to_string(f) +
                " bins=" + std::to_string(b));
      }
    }
  }
}

// End-to-end under TSan: parallel CV searches with real tree learners, cache
// on vs off, must agree record-for-record — contention inside the cache can
// never surface as a search-result difference.
FLAML_PROP(SubstrateCacheStress, ParallelCvSearchCacheOnOffIdentical, 3) {
  const Dataset data = stress_binary(prop.seed | 1);
  AutoMLOptions options;
  options.time_budget_seconds = 1e6;
  options.max_iterations = 6;
  options.initial_sample_size = 32;
  options.resampling = ResamplingPolicy::ForceCV;
  options.estimator_list = {"lgbm", "rf"};
  options.n_parallel = 4;
  options.trial_cost_model = [](const Learner& learner, const Config&,
                                std::size_t sample_size) {
    return learner.initial_cost_multiplier() *
           (0.1 + 0.001 * static_cast<double>(sample_size));
  };
  options.seed = prop.rng.next();

  options.reuse_binned_data = true;
  AutoML cached;
  cached.fit(data, options);

  options.reuse_binned_data = false;
  AutoML fresh;
  fresh.fit(data, options);

  const TrialHistory& a = cached.history();
  const TrialHistory& b = fresh.history();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string what = "record " + std::to_string(i);
    EXPECT_EQ(a[i].learner, b[i].learner) << what;
    EXPECT_EQ(a[i].config, b[i].config) << what;
    EXPECT_EQ(a[i].sample_size, b[i].sample_size) << what;
    EXPECT_DOUBLE_EQ(a[i].error, b[i].error) << what;
    EXPECT_DOUBLE_EQ(a[i].cost, b[i].cost) << what;
  }
  EXPECT_DOUBLE_EQ(cached.best_error(), fresh.best_error());
  EXPECT_EQ(cached.best_learner(), fresh.best_learner());
  EXPECT_GT(cached.metrics().value("substrate_cache.hits"), 0.0);
}

}  // namespace
}  // namespace flaml
