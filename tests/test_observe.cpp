// The observe subsystem: trace events + sinks + tracer handle, the metrics
// registry, the trace validator, and the end-to-end schema of a traced
// AutoML::fit — including the killed-trial semantics (a learner that burns
// budget without finishing must be de-prioritized by the ECI bookkeeping,
// visibly so in the trace).
#include "observe/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "automl/automl.h"
#include "common/error.h"
#include "data/generators.h"
#include "observe/metrics.h"
#include "observe/trace_check.h"
#include "support/stub_learner.h"

namespace flaml {
namespace {

using observe::JsonlTraceSink;
using observe::MemoryTraceSink;
using observe::MetricsRegistry;
using observe::TraceEvent;
using observe::Tracer;

TraceEvent make_event(const char* type, double t) {
  TraceEvent event;
  event.type = type;
  event.time = t;
  event.fields = JsonValue::make_object();
  return event;
}

// --- TraceEvent JSON form -------------------------------------------------

TEST(TraceEvent, JsonRoundTrip) {
  TraceEvent event = make_event("trial_finished", 1.25);
  event.fields.set("learner", JsonValue::make_string("lgbm"));
  event.fields.set("cost", JsonValue::make_number(0.5));

  JsonValue json = observe::to_json(event);
  EXPECT_EQ(json.at("type").str, "trial_finished");
  EXPECT_DOUBLE_EQ(json.at("t").number, 1.25);
  EXPECT_EQ(json.at("learner").str, "lgbm");

  TraceEvent back = observe::event_from_json(json);
  EXPECT_EQ(back.type, event.type);
  EXPECT_DOUBLE_EQ(back.time, event.time);
  EXPECT_EQ(back.fields.at("learner").str, "lgbm");
  EXPECT_DOUBLE_EQ(back.fields.at("cost").number, 0.5);
  // "type"/"t" never leak into the payload.
  EXPECT_EQ(back.fields.find("type"), nullptr);
  EXPECT_EQ(back.fields.find("t"), nullptr);
}

TEST(TraceEvent, ErrorFieldEncodesInfinityAsString) {
  const JsonValue finite = observe::json_error_field(0.25);
  ASSERT_TRUE(finite.is_number());
  EXPECT_DOUBLE_EQ(observe::error_field_value(finite), 0.25);

  const JsonValue inf =
      observe::json_error_field(std::numeric_limits<double>::infinity());
  ASSERT_TRUE(inf.is_string());
  EXPECT_EQ(inf.str, "inf");
  EXPECT_TRUE(std::isinf(observe::error_field_value(inf)));
}

// --- Sinks and the Tracer handle ------------------------------------------

TEST(MemoryTraceSink, AccumulatesAndFiltersByType) {
  MemoryTraceSink sink;
  sink.emit(make_event("a", 0.0));
  sink.emit(make_event("b", 0.1));
  sink.emit(make_event("a", 0.2));
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.snapshot().size(), 3u);
  EXPECT_EQ(sink.of_type("a").size(), 2u);
  EXPECT_EQ(sink.of_type("missing").size(), 0u);
}

TEST(JsonlTraceSink, WritesOneParseableObjectPerLine) {
  std::ostringstream out;
  {
    JsonlTraceSink sink(out);
    TraceEvent event = make_event("trial_finished", 0.5);
    event.fields.set("error", observe::json_error_field(
                                  std::numeric_limits<double>::infinity()));
    sink.emit(make_event("run_started", 0.0));
    sink.emit(event);
    EXPECT_EQ(sink.n_events(), 2u);
  }
  std::istringstream in(out.str());
  std::string line;
  std::size_t n_lines = 0;
  while (std::getline(in, line)) {
    ++n_lines;
    const JsonValue parsed = parse_json(line);  // throws on malformed JSON
    EXPECT_TRUE(parsed.find("type") != nullptr) << line;
    EXPECT_TRUE(parsed.find("t") != nullptr) << line;
    // Compact: a line break inside an event would split the JSONL record.
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
  EXPECT_EQ(n_lines, 2u);
}

TEST(Tracer, DefaultConstructedIsOffAndEmitIsSafe) {
  Tracer off;
  EXPECT_FALSE(static_cast<bool>(off));
  off.emit("anything");  // must be a no-op, not a crash
}

TEST(Tracer, WithStampsContextFieldsIntoEveryEvent) {
  auto sink = std::make_shared<MemoryTraceSink>();
  Tracer tracer{observe::TraceSinkPtr(sink)};
  EXPECT_TRUE(static_cast<bool>(tracer));

  Tracer scoped = tracer.with("learner", "stub_fast");
  scoped.emit("flow2_tell");

  JsonValue fields = JsonValue::make_object();
  fields.set("learner", JsonValue::make_string("explicit_wins"));
  scoped.emit("flow2_tell", std::move(fields));

  auto events = sink->of_type("flow2_tell");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].fields.at("learner").str, "stub_fast");
  EXPECT_EQ(events[1].fields.at("learner").str, "explicit_wins");
  EXPECT_GE(events[1].time, events[0].time);
}

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndHistograms) {
  MetricsRegistry metrics;
  EXPECT_DOUBLE_EQ(metrics.value("untouched"), 0.0);

  metrics.add("trials_total");
  metrics.add("trials_total");
  metrics.add("spent", 2.5);
  metrics.set("best_error", 0.3);
  metrics.set("best_error", 0.2);  // gauge overwrites
  EXPECT_DOUBLE_EQ(metrics.value("trials_total"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.value("spent"), 2.5);
  EXPECT_DOUBLE_EQ(metrics.value("best_error"), 0.2);

  for (double v : {4.0, 1.0, 3.0, 2.0, 5.0}) metrics.observe("trial_cost", v);
  const auto stats = metrics.histogram("trial_cost");
  EXPECT_EQ(stats.n, 5u);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 5.0);
  EXPECT_DOUBLE_EQ(stats.sum, 15.0);
  EXPECT_DOUBLE_EQ(stats.mean, 3.0);
  EXPECT_DOUBLE_EQ(stats.p50, 3.0);
  EXPECT_DOUBLE_EQ(stats.p90, 5.0);
  EXPECT_EQ(metrics.histogram("never_observed").n, 0u);

  const JsonValue json = metrics.to_json();
  EXPECT_DOUBLE_EQ(json.at("counters").at("trials_total").number, 2.0);
  EXPECT_DOUBLE_EQ(json.at("histograms").at("trial_cost").at("p90").number, 5.0);

  metrics.clear();
  EXPECT_DOUBLE_EQ(metrics.value("trials_total"), 0.0);
  EXPECT_EQ(metrics.histogram("trial_cost").n, 0u);
}

TEST(MetricsRegistry, RejectsNonFiniteSamples) {
  MetricsRegistry metrics;
  EXPECT_THROW(
      metrics.observe("trial_error", std::numeric_limits<double>::infinity()),
      InvalidArgument);
}

// Every value in a JSON tree, containers included.
std::size_t count_values(const JsonValue& value) {
  std::size_t n = 1;
  for (const JsonValue& item : value.array) n += count_values(item);
  for (const auto& [key, item] : value.object) n += count_values(item);
  return n;
}

TEST(MetricsRegistry, HistogramStateStopsGrowingOnceEveryBucketIsHit) {
  MetricsRegistry metrics;
  // A repeating spread of latencies: the first thousand samples hit every
  // bucket the next million will.
  const auto sample = [](int i) { return 0.05 + 0.01 * (i % 1000); };
  for (int i = 0; i < 1000; ++i) metrics.observe("latency_ms", sample(i));
  const std::size_t size = count_values(metrics.state_to_json());
  for (int i = 1000; i < 1000000; ++i) metrics.observe("latency_ms", sample(i));
  EXPECT_EQ(count_values(metrics.state_to_json()), size);
  EXPECT_EQ(metrics.histogram("latency_ms").n, 1000000u);
}

TEST(MetricsRegistry, PercentilesAreNearestRankWithinOneBucket) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> exponent(-12.0, 12.0);
  MetricsRegistry metrics;
  std::vector<double> samples;
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) {
    // Mixed signs and magnitudes, plus exact zeros.
    double v = i % 97 == 0 ? 0.0 : std::exp2(exponent(rng));
    if (i % 5 == 0) v = -v;
    samples.push_back(v);
    sum += v;
    metrics.observe("h", v);
  }
  std::sort(samples.begin(), samples.end());
  const auto nearest_rank = [&](double q) {
    return samples[static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1) + 0.5)];
  };
  const auto stats = metrics.histogram("h");
  EXPECT_EQ(stats.n, samples.size());
  EXPECT_EQ(stats.min, samples.front());
  EXPECT_EQ(stats.max, samples.back());
  EXPECT_EQ(stats.sum, sum);  // exact: accumulated in observation order
  for (const auto& [q, got] : {std::pair{0.5, stats.p50}, std::pair{0.9, stats.p90}}) {
    const double exact = nearest_rank(q);
    EXPECT_LE(std::fabs(got - exact), std::fabs(exact) / 64.0) << "q=" << q;
  }
}

TEST(MetricsRegistry, StateRoundTripContinuesLikeTheUninterruptedRegistry) {
  MetricsRegistry uninterrupted;
  MetricsRegistry first_half;
  for (int i = 0; i < 300; ++i) {
    const double v = std::sin(i) * 100.0;
    uninterrupted.observe("h", v);
    if (i < 150) first_half.observe("h", v);
  }
  MetricsRegistry resumed;
  resumed.state_from_json(parse_json(dump_json_compact(first_half.state_to_json())));
  for (int i = 150; i < 300; ++i) resumed.observe("h", std::sin(i) * 100.0);
  EXPECT_EQ(dump_json_compact(resumed.state_to_json()),
            dump_json_compact(uninterrupted.state_to_json()));
  EXPECT_EQ(dump_json_compact(resumed.to_json()),
            dump_json_compact(uninterrupted.to_json()));
}

// The state of a registry that observed 1, 3 and 3 under "h", with `edit`
// applied to that histogram's entry.
template <typename Edit>
JsonValue edited_state(Edit edit) {
  MetricsRegistry source;
  for (double v : {1.0, 3.0, 3.0}) source.observe("h", v);
  JsonValue state = source.state_to_json();
  JsonValue h = state.at("histograms").at("h");
  edit(h);
  state.set("histograms", JsonValue::make_object()).set("h", std::move(h));
  return state;
}

TEST(MetricsRegistry, CorruptHistogramStateIsRejectedAndChangesNothing) {
  MetricsRegistry metrics;
  metrics.state_from_json(edited_state([](JsonValue&) {}));
  EXPECT_EQ(metrics.histogram("h").n, 3u);
  EXPECT_DOUBLE_EQ(metrics.histogram("h").p50, 3.0);

  const auto edit_buckets = [](auto edit) {
    return edited_state([&](JsonValue& h) {
      JsonValue buckets = h.at("buckets");
      edit(buckets);
      h.set("buckets", std::move(buckets));
    });
  };
  const std::vector<std::pair<std::string, JsonValue>> corrupt = {
      {"no buckets", edit_buckets([](JsonValue& b) { b.array.clear(); })},
      {"key out of range",
       edit_buckets([](JsonValue& b) { b.array[0].array[0] = JsonValue::make_number(1e9); })},
      {"descending keys",
       edit_buckets([](JsonValue& b) { std::reverse(b.array.begin(), b.array.end()); })},
      {"zero count",
       edit_buckets([](JsonValue& b) { b.array[0].array[1] = JsonValue::make_number(0.0); })},
      {"fractional count",
       edit_buckets([](JsonValue& b) { b.array[0].array[1] = JsonValue::make_number(1.5); })},
      {"not a pair", edit_buckets([](JsonValue& b) { b.array[0].array.pop_back(); })},
      {"min outside the first bucket",
       edited_state([](JsonValue& h) { h.set("min", JsonValue::make_number(2.0)); })},
      {"min above max",
       edited_state([](JsonValue& h) { h.set("min", JsonValue::make_number(5.0)); })},
      {"infinite max",
       edited_state([](JsonValue& h) { h.set("max", JsonValue::make_string("inf")); })},
      {"NaN sum",
       edited_state([](JsonValue& h) { h.set("sum", JsonValue::make_string("nan")); })},
      {"raw samples of the v3 form",
       parse_json(R"({"scalars":{},"samples":{"h":[1,3,3]}})")},
  };
  for (const auto& [what, state] : corrupt) {
    EXPECT_THROW(metrics.state_from_json(state), SerializationError) << what;
    EXPECT_EQ(metrics.histogram("h").n, 3u) << what;
  }
}

// --- Trace validation -----------------------------------------------------

std::vector<TraceEvent> minimal_valid_trace() {
  std::vector<TraceEvent> events;
  events.push_back(make_event("run_started", 0.0));

  TraceEvent started = make_event("trial_started", 0.1);
  started.fields.set("learner", JsonValue::make_string("stub"));
  started.fields.set("sample_size", JsonValue::make_number(16));
  events.push_back(started);

  TraceEvent finished = make_event("trial_finished", 0.2);
  finished.fields.set("learner", JsonValue::make_string("stub"));
  finished.fields.set("iteration", JsonValue::make_number(0));
  finished.fields.set("sample_size", JsonValue::make_number(16));
  finished.fields.set("cost", JsonValue::make_number(0.05));
  finished.fields.set("status", JsonValue::make_string("ok"));
  finished.fields.set("error", JsonValue::make_number(0.4));
  events.push_back(finished);

  TraceEvent summary = make_event("run_summary", 0.3);
  summary.fields.set("n_trials", JsonValue::make_number(1));
  summary.fields.set("best_learner", JsonValue::make_string("stub"));
  summary.fields.set("best_error", JsonValue::make_number(0.4));
  summary.fields.set("metrics", JsonValue::make_object());
  events.push_back(summary);
  return events;
}

TEST(TraceCheck, AcceptsAMinimalValidTrace) {
  const auto result = observe::check_trace_events(minimal_valid_trace());
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.n_trials, 1u);
  EXPECT_DOUBLE_EQ(result.best_error, 0.4);
}

TEST(TraceCheck, RejectsStructuralViolations) {
  // run_started must come first.
  {
    auto events = minimal_valid_trace();
    std::swap(events[0], events[1]);
    EXPECT_FALSE(observe::check_trace_events(events).ok());
  }
  // Exactly one run_summary, and it must be last.
  {
    auto events = minimal_valid_trace();
    events.pop_back();
    EXPECT_FALSE(observe::check_trace_events(events).ok());
  }
  // Started/finished counts must match.
  {
    auto events = minimal_valid_trace();
    events.insert(events.end() - 1, events[1]);  // extra trial_started
    EXPECT_FALSE(observe::check_trace_events(events).ok());
  }
  // A killed trial must NOT report a finite error.
  {
    auto events = minimal_valid_trace();
    events[2].fields.set("status", JsonValue::make_string("killed"));
    EXPECT_FALSE(observe::check_trace_events(events).ok());
  }
  // sample_doubled must grow the sample.
  {
    auto events = minimal_valid_trace();
    TraceEvent doubled = make_event("sample_doubled", 0.15);
    doubled.fields.set("learner", JsonValue::make_string("stub"));
    doubled.fields.set("from", JsonValue::make_number(32));
    doubled.fields.set("to", JsonValue::make_number(16));
    events.insert(events.end() - 1, doubled);
    EXPECT_FALSE(observe::check_trace_events(events).ok());
  }
  // run_summary totals must match the events.
  {
    auto events = minimal_valid_trace();
    events.back().fields.set("n_trials", JsonValue::make_number(7));
    EXPECT_FALSE(observe::check_trace_events(events).ok());
  }
}

TEST(TraceCheck, ReportsParseErrorsWithLineNumbers) {
  std::istringstream in("{\"type\": \"run_started\", \"t\": 0}\nnot json\n");
  const auto result = observe::check_trace(in);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errors[0].find("line 2"), std::string::npos)
      << result.errors[0];
}

// --- Traced AutoML runs ---------------------------------------------------

Dataset tiny_binary(std::uint64_t seed) {
  SyntheticSpec spec;
  spec.task = Task::BinaryClassification;
  spec.n_rows = 100;
  spec.n_features = 5;
  spec.seed = seed;
  return make_classification(spec);
}

TrialCostModel stub_cost_model() {
  return [](const Learner& learner, const Config& config, std::size_t sample_size) {
    return learner.initial_cost_multiplier() *
           (0.05 + 0.001 * static_cast<double>(sample_size) +
            0.002 * config.at("units"));
  };
}

AutoMLOptions stub_options(std::uint64_t seed, std::size_t max_iterations) {
  AutoMLOptions options;
  options.time_budget_seconds = 1e6;
  options.max_iterations = max_iterations;
  options.initial_sample_size = 16;
  options.resampling = ResamplingPolicy::ForceHoldout;
  options.estimator_list = {"stub_fast", "stub_slow"};
  options.trial_cost_model = stub_cost_model();
  options.seed = seed;
  return options;
}

void add_stub_lineup(AutoML& automl) {
  automl.add_learner(std::make_shared<testing::StubLearner>("stub_fast", 1.0));
  automl.add_learner(std::make_shared<testing::StubLearner>("stub_slow", 15.0));
}

TEST(TracedFit, EmitsEveryEventTypeAndValidates) {
  Dataset data = tiny_binary(11);
  auto sink = std::make_shared<MemoryTraceSink>();
  AutoMLOptions options = stub_options(5, /*max_iterations=*/30);
  options.trace_sink = sink;

  AutoML automl;
  add_stub_lineup(automl);
  automl.fit(data, options);

  const auto result = observe::check_trace_events(sink->snapshot());
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.n_trials, 30u);
  EXPECT_DOUBLE_EQ(result.best_error, automl.best_error());

  // All paper decisions show up (30 iterations from sample 16 on ~90 train
  // rows is enough for at least one sample doubling per learner).
  for (const char* type :
       {"run_started", "resampling_proposed", "learner_proposed",
        "sample_doubled", "trial_started", "trial_finished", "flow2_tell",
        "run_summary"}) {
    EXPECT_GT(result.by_type.count(type), 0u) << type;
  }

  // learner_proposed carries the full ECI vector with one entry per learner.
  const auto proposals = sink->of_type("learner_proposed");
  ASSERT_FALSE(proposals.empty());
  const JsonValue& eci = proposals.back().fields.at("eci");
  ASSERT_EQ(eci.array.size(), 2u);
  for (const auto& entry : eci.array) {
    EXPECT_TRUE(entry.find("learner") != nullptr);
    EXPECT_TRUE(entry.find("eci") != nullptr);
    EXPECT_TRUE(entry.find("eci1") != nullptr);
    EXPECT_TRUE(entry.find("eci2") != nullptr);
  }

  // The metrics registry agrees with the history.
  const auto& metrics = automl.metrics();
  EXPECT_DOUBLE_EQ(metrics.value("trials_total"), 30.0);
  EXPECT_DOUBLE_EQ(metrics.value("trials_ok"), 30.0);
  EXPECT_DOUBLE_EQ(metrics.value("trials.stub_fast") +
                       metrics.value("trials.stub_slow"),
                   30.0);
  EXPECT_EQ(metrics.histogram("trial_cost").n, 30u);
  EXPECT_DOUBLE_EQ(metrics.value("best_error"), automl.best_error());
}

TEST(TracedFit, JsonlRoundTripValidates) {
  Dataset data = tiny_binary(13);
  std::ostringstream out;
  auto sink = std::make_shared<JsonlTraceSink>(out);
  AutoMLOptions options = stub_options(6, /*max_iterations=*/10);
  options.trace_sink = sink;

  AutoML automl;
  add_stub_lineup(automl);
  automl.fit(data, options);

  std::istringstream in(out.str());
  const auto result = observe::check_trace(in);
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.n_trials, 10u);
}

TEST(TracedFit, UntracedRunsProduceIdenticalHistories) {
  // The trace must be an observer: attaching a sink may not perturb a single
  // search decision.
  Dataset data = tiny_binary(17);
  AutoMLOptions options = stub_options(9, /*max_iterations=*/15);

  AutoML plain;
  add_stub_lineup(plain);
  plain.fit(data, options);

  AutoMLOptions traced_options = options;
  traced_options.trace_sink = std::make_shared<MemoryTraceSink>();
  AutoML traced;
  add_stub_lineup(traced);
  traced.fit(data, traced_options);

  ASSERT_EQ(plain.history().size(), traced.history().size());
  for (std::size_t i = 0; i < plain.history().size(); ++i) {
    EXPECT_EQ(plain.history()[i].learner, traced.history()[i].learner) << i;
    EXPECT_DOUBLE_EQ(plain.history()[i].error, traced.history()[i].error) << i;
    EXPECT_DOUBLE_EQ(plain.history()[i].cost, traced.history()[i].cost) << i;
  }
}

// A learner whose every fit overruns its deadline: records cost, returns no
// model. The paper's killed-trial semantics say its cost must still be
// charged, so the ECI bookkeeping de-prioritizes it.
class DeadlineLearner final : public Learner {
 public:
  const std::string& name() const override {
    static const std::string n = "overrunner";
    return n;
  }
  bool supports(Task task) const override {
    return task == Task::BinaryClassification;
  }
  ConfigSpace space(Task, std::size_t) const override {
    ConfigSpace s;
    s.add_float("slope", -4.0, 4.0, 0.5);
    s.add_int("units", 4, 256, 4, /*log_scale=*/true, /*cost_related=*/true);
    return s;
  }
  std::unique_ptr<Model> train(const TrainContext&, const Config&) const override {
    throw DeadlineExceeded("synthetic overrun");
  }
  double initial_cost_multiplier() const override { return 1.0; }
};

TEST(TracedFit, KilledTrialsChargeCostAndDePrioritizeTheLearner) {
  Dataset data = tiny_binary(19);
  auto sink = std::make_shared<MemoryTraceSink>();
  AutoMLOptions options = stub_options(3, /*max_iterations=*/24);
  options.estimator_list = {"stub_fast", "overrunner"};
  options.learner_choice = LearnerChoice::EciGreedy;
  options.trace_sink = sink;

  AutoML automl;
  automl.add_learner(std::make_shared<testing::StubLearner>("stub_fast", 1.0));
  automl.add_learner(std::make_shared<DeadlineLearner>());
  automl.fit(data, options);

  // The trace still validates (killed trials report error == "inf").
  const auto result = observe::check_trace_events(sink->snapshot());
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);

  // Killed trials are visible as such, with their cost charged.
  std::size_t n_killed = 0;
  for (const auto& event : sink->of_type("trial_finished")) {
    if (event.fields.at("status").str != "killed") continue;
    ++n_killed;
    EXPECT_EQ(event.fields.at("learner").str, "overrunner");
    EXPECT_TRUE(
        std::isinf(observe::error_field_value(event.fields.at("error"))));
    EXPECT_GT(event.fields.at("cost").number, 0.0);
  }
  ASSERT_GT(n_killed, 0u);
  EXPECT_DOUBLE_EQ(automl.metrics().value("trials_killed"),
                   static_cast<double>(n_killed));

  // ECI1 for the overrunner grows as killed trials burn budget without a
  // best update: K0 − K1 is monotone in spent cost (visible in successive
  // learner_proposed ECI vectors).
  std::vector<double> overrunner_eci1;
  for (const auto& event : sink->of_type("learner_proposed")) {
    for (const auto& entry : event.fields.at("eci").array) {
      if (entry.at("learner").str != "overrunner") continue;
      const double eci1 = observe::error_field_value(entry.at("eci1"));
      const double n_trials = entry.at("n_trials").number;
      if (std::isfinite(eci1) && n_trials > 0) overrunner_eci1.push_back(eci1);
    }
  }
  ASSERT_GE(overrunner_eci1.size(), 2u);
  EXPECT_GT(overrunner_eci1.back(), overrunner_eci1.front());

  // De-prioritization: the greedy policy stops picking the overrunner, so
  // the healthy learner gets the bulk of the budget.
  const auto& metrics = automl.metrics();
  EXPECT_GT(metrics.value("trials.stub_fast"),
            metrics.value("trials.overrunner"));
  EXPECT_DOUBLE_EQ(metrics.value("trials_total"), 24.0);
  EXPECT_GT(metrics.value("trials_ok"), 0.0);
}

}  // namespace
}  // namespace flaml
