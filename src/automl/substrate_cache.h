// Cross-trial binned-substrate cache for the trial hot loop.
//
// Every histogram trial used to open with the same ritual: fit a BinMapper
// on its training rows and encode them into packed bin codes. The search loop
// re-evaluates the same sample sizes hundreds of times (FLOW2 proposes many
// configs per (learner, sample_size) rung), so that fit+encode — O(n·d) with
// a sort per feature — was pure re-computation. This cache, owned by the
// TrialRunner, builds each substrate once and serves every later trial the
// shared immutable copy.
//
// Keying is by EXACT row set: (sample_size, k, fold, max_bin), where
// holdout/prefix entries use k = 0, fold = -1. A substrate is only correct
// for the precise rows it was fit on — fitting at a different size moves
// quantile bin edges — so there is no cross-size reuse; the win is
// cross-TRIAL reuse at repeated keys. For CV the k-fold partition of each
// sample prefix is memoized too (it is a pure function of the runner's fold
// seed), and each fold's train side gets its own substrate entry.
//
// Concurrency: a mutex guards the key maps and counters; the expensive
// build runs under a per-entry std::call_once OUTSIDE that lock, so
// concurrent trials asking for different keys build in parallel while
// concurrent trials asking for the same key build it exactly once. Entries
// are immutable after construction and live as shared_ptr<const ...>, so
// trainers can hold references for the duration of a fit with no further
// synchronization.
//
// Determinism contract: cache on vs off is byte-identical — the cache runs
// the same BinMapper::fit + encode_packed (see build_substrate) and the same
// kfold_split with the same seed the uncached path uses, and trainers
// verify rows/max_bin before accepting a substrate (acquire_substrate).
// Pinned by the golden digest equality tests and the property suite in
// tests/test_substrate_cache.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "data/split.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "tree/binning.h"

namespace flaml {

class SubstrateCache {
 public:
  struct Counters {
    std::uint64_t hits = 0;    // lookups served from an existing entry
    std::uint64_t misses = 0;  // lookups that created (and built) the entry
    std::size_t bytes = 0;     // total packed-code bytes held
  };

  // `train_view` is the runner's shuffled training view (samples are its
  // prefixes); it must outlive the cache. `fold_seed` must equal the seed
  // the uncached path hands kfold_split, so memoized folds are
  // bit-identical to freshly drawn ones. `tracer`/`metrics` may be
  // off/null; when attached, builds emit `substrate_cache` trace events and
  // lookups maintain the substrate_cache.{hits,misses,bytes} metrics.
  SubstrateCache(const DataView* train_view, std::uint64_t fold_seed,
                 observe::Tracer tracer, observe::MetricsRegistry* metrics);

  // Substrate fit+encoded on exactly the first `sample_size` rows of the
  // train view (the holdout-mode training sample; also the final-retrain
  // rows when sample_size == n_rows).
  std::shared_ptr<const BinnedSubstrate> prefix(std::size_t sample_size,
                                                int max_bin);

  // Memoized k-fold partition of the first `sample_size` rows, drawn with
  // the cache's fold seed.
  std::shared_ptr<const std::vector<Fold>> folds(std::size_t sample_size, int k);

  // Substrate for the TRAIN side of fold `fold_index` of
  // folds(sample_size, k).
  std::shared_ptr<const BinnedSubstrate> fold_train(std::size_t sample_size,
                                                    int k, int fold_index,
                                                    int max_bin);

  Counters counters() const;

 private:
  // (sample_size, k, fold, max_bin); prefix entries use k = 0, fold = -1.
  using SubstrateKey = std::tuple<std::size_t, int, int, int>;
  using FoldsKey = std::pair<std::size_t, int>;

  struct SubstrateEntry {
    std::once_flag once;
    std::shared_ptr<const BinnedSubstrate> value;
  };
  struct FoldsEntry {
    std::once_flag once;
    std::shared_ptr<const std::vector<Fold>> value;
  };

  // Find-or-insert under the lock, counting a hit (found) or miss
  // (inserted) and mirroring the counters into the metrics registry.
  std::shared_ptr<SubstrateEntry> substrate_entry(const SubstrateKey& key);

  // Build accounting shared by prefix() and fold_train(): bytes counters,
  // metrics gauge, trace event.
  void record_build(const SubstrateKey& key, const BinnedSubstrate& built);

  const DataView* train_view_;
  std::uint64_t fold_seed_;
  observe::Tracer tracer_;
  observe::MetricsRegistry* metrics_;

  mutable std::mutex mutex_;
  std::map<SubstrateKey, std::shared_ptr<SubstrateEntry>> substrates_;
  std::map<FoldsKey, std::shared_ptr<FoldsEntry>> folds_;
  Counters counters_;
};

}  // namespace flaml
