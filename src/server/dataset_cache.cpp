#include "server/dataset_cache.h"

#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/sealed_file.h"
#include "data/csv.h"

namespace flaml::server {

namespace {

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FLAML_REQUIRE(in.good(), "cannot open CSV file '" << path << "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  FLAML_REQUIRE(!in.bad(), "failed reading CSV file '" << path << "'");
  return buffer.str();
}

}  // namespace

DatasetCache::DatasetCache(std::size_t max_entries)
    : max_entries_(max_entries) {
  FLAML_REQUIRE(max_entries_ >= 1, "dataset cache needs capacity >= 1");
}

std::shared_ptr<const Dataset> DatasetCache::load_csv(
    const std::string& path, Task task, const std::string& label_column) {
  // Read the bytes up front: the fingerprint must describe what a reparse
  // WOULD see, so hit detection and the parse consume the same snapshot
  // even when the file is rewritten concurrently.
  const std::string bytes = read_file_bytes(path);
  const std::uint64_t fingerprint = content_fingerprint(bytes);
  const std::string key =
      "csv:" + path + "|" + task_name(task) + "|" + label_column;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.fingerprint == fingerprint) {
      touch_locked(it->second, key);
      return it->second.data;
    }
  }

  CsvOptions csv_options;
  csv_options.task = task;
  csv_options.label_column = label_column;
  std::istringstream in(bytes);
  auto data = std::make_shared<const Dataset>(read_csv(in, csv_options));

  std::lock_guard<std::mutex> lock(mutex_);
  return insert_locked(key, fingerprint, std::move(data));
}

std::shared_ptr<const Dataset> DatasetCache::load_synthetic(
    const SyntheticSpec& spec) {
  std::ostringstream key_out;
  key_out << "syn:" << task_name(spec.task) << "|" << spec.n_rows << "|"
          << spec.n_features << "|" << spec.n_classes << "|" << spec.seed;
  const std::string key = key_out.str();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      touch_locked(it->second, key);
      return it->second.data;
    }
  }
  auto data = std::make_shared<const Dataset>(make_synthetic(spec));
  std::lock_guard<std::mutex> lock(mutex_);
  return insert_locked(key, 0, std::move(data));
}

std::size_t DatasetCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void DatasetCache::touch_locked(Entry& entry, const std::string& key) {
  lru_.erase(entry.lru_pos);
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
}

std::shared_ptr<const Dataset> DatasetCache::insert_locked(
    const std::string& key, std::uint64_t fingerprint,
    std::shared_ptr<const Dataset> data) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Same key, new content: replace in place (covers the concurrent-miss
    // race too — last parse wins, both snapshots were valid datasets).
    it->second.fingerprint = fingerprint;
    it->second.data = std::move(data);
    touch_locked(it->second, key);
    return it->second.data;
  }
  if (entries_.size() >= max_entries_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  Entry entry;
  entry.fingerprint = fingerprint;
  entry.data = std::move(data);
  entry.lru_pos = lru_.begin();
  return entries_.emplace(key, std::move(entry)).first->second.data;
}

}  // namespace flaml::server
