// Lightweight run metrics for the AutoML search: named counters, gauges and
// histograms, aggregated by the controller while it commits trials and
// snapshotted into the run_summary trace event at the end of fit().
//
// Counters the controller maintains (docs/TESTING.md):
//   trials_total / trials_ok / trials_killed / trials_failed
//   trials.<learner>        trials committed per learner
//   sample_doublings        sample-size growth decisions
//   flow2_restarts          tuner restarts (FairChance escapes)
// Gauges: best_error, time_to_best_seconds, iteration_of_best.
// Histograms: trial_cost (all trials), trial_error (successful only).
// Kill rate = trials_killed / trials_total; derived by consumers.
//
// Histograms keep fixed log-linear buckets, not raw samples, so their memory
// is bounded by the number of distinct buckets hit — never by the sample
// count — however long a daemon runs. Each power of two is split into 64
// equal buckets (the top 6 mantissa bits of the double), so a percentile is
// resolved to within 1/64 of its true value; n, sum, min and max are exact.
//
// Thread-safe (a single mutex): observe() is one map lookup, and reads walk
// the buckets without copying or sorting.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/json.h"

namespace flaml::observe {

struct HistogramStats {
  std::size_t n = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
};

class MetricsRegistry {
 public:
  // Counters accumulate; gauges overwrite; histograms count samples per
  // bucket.
  void add(const std::string& name, double delta = 1.0);
  void set(const std::string& name, double value);
  void observe(const std::string& name, double sample);

  // 0 when the counter/gauge was never touched.
  double value(const std::string& name) const;
  // Zeroed stats when the histogram was never observed. p50/p90 follow the
  // nearest-rank rule, resolved to the bucket holding that rank: its bound
  // nearest zero, clamped to [min, max] (within 1/64 of the exact sample).
  HistogramStats histogram(const std::string& name) const;

  // {"counters": {name: value}, "histograms": {name: {n, min, max, sum,
  //  mean, p50, p90}}} — insertion order is the map's sorted key order.
  JsonValue to_json() const;

  // Checkpoint/resume (src/resume): unlike to_json(), which summarizes
  // histograms to stats, the state form keeps the exact sum/min/max and
  // every bucket count, so a resumed run's final stats equal the
  // uninterrupted run's. state_from_json replaces the registry contents;
  // throws SerializationError on corrupt input.
  JsonValue state_to_json() const;
  void state_from_json(const JsonValue& value);

  void clear();

 private:
  struct Histogram {
    std::uint64_t n = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::map<std::int32_t, std::uint64_t> buckets;  // bucket key -> count
  };
  static HistogramStats stats_of(const Histogram& h);

  mutable std::mutex mutex_;
  std::map<std::string, double> scalars_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace flaml::observe
