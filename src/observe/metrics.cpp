#include "observe/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "resume/serial_util.h"

namespace flaml::observe {

namespace {

// A bucket key is the sample's sign, exponent and top kSubBucketBits
// mantissa bits: 2^6 = 64 equal buckets per power of two.
constexpr int kSubBucketBits = 6;
constexpr int kDroppedBits = std::numeric_limits<double>::digits - 1 - kSubBucketBits;
constexpr std::int32_t kMaxKey = static_cast<std::int32_t>(
    std::bit_cast<std::uint64_t>(std::numeric_limits<double>::max()) >> kDroppedBits);
// Counts stay exact as JSON numbers.
constexpr std::int64_t kMaxCount = std::int64_t{1} << 53;

// Monotone in the sample: 0 for zero, the magnitude's key for positive
// samples, -1 - key(|x|) for negative ones.
std::int32_t bucket_key(double x) {
  const auto magnitude = static_cast<std::int32_t>(
      std::bit_cast<std::uint64_t>(std::fabs(x)) >> kDroppedBits);
  return x < 0.0 ? -1 - magnitude : magnitude;
}

// The bucket's bound nearest zero (exact for small integers).
double bucket_bound(std::int32_t key) {
  const std::int32_t magnitude = key < 0 ? -1 - key : key;
  const double bound =
      std::bit_cast<double>(static_cast<std::uint64_t>(magnitude) << kDroppedBits);
  return key < 0 ? -bound : bound;
}

// Nearest-rank quantile, resolved to the bucket that holds the rank.
double quantile(const std::map<std::int32_t, std::uint64_t>& buckets,
                const HistogramStats& stats, double q) {
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(stats.n - 1) + 0.5);
  std::uint64_t through = 0;
  for (const auto& [key, count] : buckets) {
    through += count;
    if (rank < through) return std::clamp(bucket_bound(key), stats.min, stats.max);
  }
  return stats.max;
}

}  // namespace

void MetricsRegistry::add(const std::string& name, double delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  scalars_[name] += delta;
}

void MetricsRegistry::set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  scalars_[name] = value;
}

void MetricsRegistry::observe(const std::string& name, double sample) {
  FLAML_REQUIRE(std::isfinite(sample),
                "histogram sample for '" << name << "' must be finite");
  std::lock_guard<std::mutex> lock(mutex_);
  Histogram& h = histograms_[name];
  h.min = h.n == 0 ? sample : std::min(h.min, sample);
  h.max = h.n == 0 ? sample : std::max(h.max, sample);
  ++h.n;
  h.sum += sample;
  ++h.buckets[bucket_key(sample)];
}

double MetricsRegistry::value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = scalars_.find(name);
  return it == scalars_.end() ? 0.0 : it->second;
}

HistogramStats MetricsRegistry::stats_of(const Histogram& h) {
  HistogramStats stats;
  stats.n = h.n;
  stats.min = h.min;
  stats.max = h.max;
  stats.sum = h.sum;
  stats.mean = h.sum / static_cast<double>(h.n);
  stats.p50 = quantile(h.buckets, stats, 0.5);
  stats.p90 = quantile(h.buckets, stats, 0.9);
  return stats;
}

HistogramStats MetricsRegistry::histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramStats{} : stats_of(it->second);
}

JsonValue MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonValue out = JsonValue::make_object();
  JsonValue& counters = out.set("counters", JsonValue::make_object());
  for (const auto& [name, value] : scalars_) {
    counters.set(name, JsonValue::make_number(value));
  }
  JsonValue& histograms = out.set("histograms", JsonValue::make_object());
  for (const auto& [name, h] : histograms_) {
    const HistogramStats stats = stats_of(h);
    JsonValue& j = histograms.set(name, JsonValue::make_object());
    j.set("n", JsonValue::make_number(static_cast<double>(stats.n)));
    j.set("min", JsonValue::make_number(stats.min));
    j.set("max", JsonValue::make_number(stats.max));
    j.set("sum", JsonValue::make_number(stats.sum));
    j.set("mean", JsonValue::make_number(stats.mean));
    j.set("p50", JsonValue::make_number(stats.p50));
    j.set("p90", JsonValue::make_number(stats.p90));
  }
  return out;
}

JsonValue MetricsRegistry::state_to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonValue out = JsonValue::make_object();
  JsonValue& scalars = out.set("scalars", JsonValue::make_object());
  for (const auto& [name, value] : scalars_) {
    scalars.set(name, resume::json_double(value));
  }
  JsonValue& histograms = out.set("histograms", JsonValue::make_object());
  for (const auto& [name, h] : histograms_) {
    JsonValue& j = histograms.set(name, JsonValue::make_object());
    j.set("sum", resume::json_double(h.sum));
    j.set("min", resume::json_double(h.min));
    j.set("max", resume::json_double(h.max));
    JsonValue& buckets = j.set("buckets", JsonValue::make_array());
    for (const auto& [key, count] : h.buckets) {
      JsonValue entry = JsonValue::make_array();
      entry.push(JsonValue::make_number(static_cast<double>(key)));
      entry.push(JsonValue::make_number(static_cast<double>(count)));
      buckets.push(std::move(entry));
    }
  }
  return out;
}

void MetricsRegistry::state_from_json(const JsonValue& value) {
  // Caps bound what a corrupt checkpoint can make us allocate: the search
  // keeps a handful of metric names, each with at most one entry per key.
  constexpr std::size_t kMaxNames = 100000;
  constexpr std::size_t kMaxBuckets = 2 * (static_cast<std::size_t>(kMaxKey) + 1);
  const JsonValue& scalars = resume::req_object(value, "scalars");
  FLAML_PARSE_REQUIRE(scalars.object.size() <= kMaxNames,
                      "metrics scalar map too large");
  const JsonValue& histograms = resume::req_object(value, "histograms");
  FLAML_PARSE_REQUIRE(histograms.object.size() <= kMaxNames,
                      "metrics histogram map too large");
  std::map<std::string, double> new_scalars;
  for (const auto& [name, v] : scalars.object) {
    FLAML_PARSE_REQUIRE(!name.empty(), "metrics scalar name must be non-empty");
    const bool inserted =
        new_scalars.emplace(name, resume::double_value(v, name.c_str())).second;
    FLAML_PARSE_REQUIRE(inserted, "duplicate metrics scalar '" << name << "'");
  }
  std::map<std::string, Histogram> new_histograms;
  for (const auto& [name, j] : histograms.object) {
    FLAML_PARSE_REQUIRE(!name.empty(), "metrics histogram name must be non-empty");
    Histogram h;
    // observe() only ever stores finite samples; mirror that on load.
    h.sum = resume::req_double(j, "sum");
    FLAML_PARSE_REQUIRE(!std::isnan(h.sum), "metrics histogram '" << name
                                                                  << "' sum is NaN");
    h.min = resume::req_finite(j, "min");
    h.max = resume::req_finite(j, "max");
    FLAML_PARSE_REQUIRE(h.min <= h.max,
                        "metrics histogram '" << name << "' has min > max");
    const JsonValue& buckets = resume::req_array(j, "buckets", kMaxBuckets);
    for (const JsonValue& entry : buckets.array) {
      FLAML_PARSE_REQUIRE(entry.is_array() && entry.array.size() == 2,
                          "metrics histogram '" << name
                                                << "' bucket must be [key, count]");
      const auto key = static_cast<std::int32_t>(
          resume::int_value(entry.array[0], name.c_str(), -1 - kMaxKey, kMaxKey));
      const auto count = static_cast<std::uint64_t>(
          resume::int_value(entry.array[1], name.c_str(), 1, kMaxCount));
      FLAML_PARSE_REQUIRE(h.buckets.empty() || key > h.buckets.rbegin()->first,
                          "metrics histogram '" << name
                                                << "' bucket keys must ascend");
      FLAML_PARSE_REQUIRE(count <= static_cast<std::uint64_t>(kMaxCount) - h.n,
                          "metrics histogram '" << name << "' count too large");
      h.buckets.emplace_hint(h.buckets.end(), key, count);
      h.n += count;
    }
    // A histogram exists only once observed, and its extremes sit in its
    // outermost buckets.
    FLAML_PARSE_REQUIRE(!h.buckets.empty() &&
                            bucket_key(h.min) == h.buckets.begin()->first &&
                            bucket_key(h.max) == h.buckets.rbegin()->first,
                        "metrics histogram '" << name
                                              << "' min/max disagree with its buckets");
    const bool inserted = new_histograms.emplace(name, std::move(h)).second;
    FLAML_PARSE_REQUIRE(inserted,
                        "duplicate metrics histogram '" << name << "'");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  scalars_ = std::move(new_scalars);
  histograms_ = std::move(new_histograms);
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  scalars_.clear();
  histograms_.clear();
}

}  // namespace flaml::observe
