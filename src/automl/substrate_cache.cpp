#include "automl/substrate_cache.h"

#include "common/error.h"
#include "common/rng.h"

namespace flaml {

SubstrateCache::SubstrateCache(const DataView* train_view,
                               std::uint64_t fold_seed, observe::Tracer tracer,
                               observe::MetricsRegistry* metrics)
    : train_view_(train_view),
      fold_seed_(fold_seed),
      tracer_(std::move(tracer)),
      metrics_(metrics) {
  FLAML_REQUIRE(train_view_ != nullptr, "substrate cache needs a train view");
}

std::shared_ptr<SubstrateCache::SubstrateEntry> SubstrateCache::substrate_entry(
    const SubstrateKey& key) {
  bool miss = false;
  std::shared_ptr<SubstrateEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = substrates_.try_emplace(key);
    if (inserted) it->second = std::make_shared<SubstrateEntry>();
    entry = it->second;
    miss = inserted;
    if (miss) {
      ++counters_.misses;
    } else {
      ++counters_.hits;
    }
  }
  // The registry has its own mutex; keep the two locks disjoint.
  if (metrics_ != nullptr) {
    metrics_->add(miss ? "substrate_cache.misses" : "substrate_cache.hits");
  }
  return entry;
}

void SubstrateCache::record_build(const SubstrateKey& key,
                                  const BinnedSubstrate& built) {
  const std::size_t built_bytes = built.bytes();
  std::size_t total_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.bytes += built_bytes;
    total_bytes = counters_.bytes;
  }
  if (metrics_ != nullptr) {
    metrics_->set("substrate_cache.bytes", static_cast<double>(total_bytes));
  }
  if (tracer_) {
    const auto& [sample_size, k, fold, max_bin] = key;
    JsonValue fields = JsonValue::make_object();
    fields.set("scope", JsonValue::make_string(k == 0 ? "prefix" : "fold"));
    fields.set("sample_size",
               JsonValue::make_number(static_cast<double>(sample_size)));
    fields.set("k", JsonValue::make_number(k));
    fields.set("fold", JsonValue::make_number(fold));
    fields.set("max_bin", JsonValue::make_number(max_bin));
    fields.set("rows", JsonValue::make_number(
                           static_cast<double>(built.packed.n_rows())));
    fields.set("bytes", JsonValue::make_number(static_cast<double>(built_bytes)));
    fields.set("total_bytes",
               JsonValue::make_number(static_cast<double>(total_bytes)));
    // The packed codes are the whole substrate, so packed_bytes == bytes;
    // "u8" at the default max_bin = 255.
    fields.set("packed_bytes", JsonValue::make_number(
                                   static_cast<double>(built.packed.bytes())));
    fields.set("packed_width",
               JsonValue::make_string(built.packed.wide() ? "u16" : "u8"));
    tracer_.emit("substrate_cache", std::move(fields));
  }
}

std::shared_ptr<const BinnedSubstrate> SubstrateCache::prefix(
    std::size_t sample_size, int max_bin) {
  FLAML_REQUIRE(sample_size >= 1 && sample_size <= train_view_->n_rows(),
                "substrate prefix size out of range");
  const SubstrateKey key{sample_size, 0, -1, max_bin};
  auto entry = substrate_entry(key);
  std::call_once(entry->once, [&] {
    entry->value = std::make_shared<const BinnedSubstrate>(
        build_substrate(train_view_->prefix(sample_size), max_bin));
    record_build(key, *entry->value);
  });
  return entry->value;
}

std::shared_ptr<const std::vector<Fold>> SubstrateCache::folds(
    std::size_t sample_size, int k) {
  const FoldsKey key{sample_size, k};
  std::shared_ptr<FoldsEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = folds_.try_emplace(key);
    if (inserted) it->second = std::make_shared<FoldsEntry>();
    entry = it->second;
  }
  std::call_once(entry->once, [&] {
    // Exactly the uncached path: a FRESH rng from the fold seed per
    // partition, so the memoized folds equal what run() would draw.
    Rng fold_rng(fold_seed_);
    entry->value = std::make_shared<const std::vector<Fold>>(
        kfold_split(train_view_->prefix(sample_size), k, fold_rng));
  });
  return entry->value;
}

std::shared_ptr<const BinnedSubstrate> SubstrateCache::fold_train(
    std::size_t sample_size, int k, int fold_index, int max_bin) {
  FLAML_REQUIRE(k >= 2 && fold_index >= 0 && fold_index < k,
                "substrate fold index out of range");
  const SubstrateKey key{sample_size, k, fold_index, max_bin};
  auto entry = substrate_entry(key);
  std::call_once(entry->once, [&] {
    auto parts = folds(sample_size, k);
    entry->value = std::make_shared<const BinnedSubstrate>(build_substrate(
        (*parts)[static_cast<std::size_t>(fold_index)].train, max_bin));
    record_build(key, *entry->value);
  });
  return entry->value;
}

SubstrateCache::Counters SubstrateCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace flaml
