// The search daemon (src/server): SearchJob segmenting, the SearchDaemon
// scheduler (fair-share quanta, priority preemption, deadlines, cancel) and
// the line-delimited JSON service. Every scheduling test asserts the core
// contract: however a job was sliced, preempted and resumed, its trial
// history/best/metrics equal a solo uninterrupted run of the same options —
// the checkpoint byte-exactness of tests/test_resume.cpp lifted to the
// daemon. tests/stress/stress_server.cpp re-runs the N×M matrix under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "common/line_server.h"
#include "server/service.h"
#include "support/resume_test_util.h"

namespace flaml::testing {
namespace {

using server::JobOptions;
using server::JobState;
using server::RingTraceSink;
using server::SearchDaemon;
using server::SearchService;

std::vector<LearnerPtr> stub_lineup() {
  return {std::make_shared<StubLearner>("stub_fast", 1.0),
          std::make_shared<StubLearner>("stub_mid", 1.9),
          std::make_shared<StubLearner>("stub_slow", 15.0)};
}

// Reference: the same search, uninterrupted, in-process.
void solo_run(AutoML& automl, const Dataset& data, std::uint64_t seed,
              std::size_t iterations) {
  add_resume_lineup(automl);
  automl.fit(data, resume_options(seed, iterations));
}

// --- RingTraceSink ---------------------------------------------------------

observe::TraceEvent numbered_event(int n) {
  observe::TraceEvent event;
  event.type = "test_event";
  event.fields = JsonValue::make_object();
  event.fields.set("n", JsonValue::make_number(n));
  return event;
}

TEST(RingTraceSink, WindowPagingAndDrop) {
  RingTraceSink ring(4);
  for (int n = 0; n < 6; ++n) ring.emit(numbered_event(n));
  EXPECT_EQ(ring.total(), 6u);

  // The two oldest events fell off; a cursor at 0 reports them as dropped.
  RingTraceSink::Window window = ring.since(0);
  EXPECT_EQ(window.first, 2u);
  EXPECT_EQ(window.next, 6u);
  EXPECT_EQ(window.dropped, 2u);
  ASSERT_EQ(window.events.size(), 4u);
  EXPECT_EQ(window.events.front().fields.at("n").number, 2.0);

  // Paging from the returned cursor loses nothing.
  window = ring.since(window.next);
  EXPECT_TRUE(window.events.empty());
  EXPECT_EQ(window.dropped, 0u);
  ring.emit(numbered_event(6));
  window = ring.since(window.next);
  ASSERT_EQ(window.events.size(), 1u);
  EXPECT_EQ(window.events.front().fields.at("n").number, 6.0);
}

TEST(RingTraceSink, RejectsZeroCapacity) {
  EXPECT_THROW(RingTraceSink ring(0), InvalidArgument);
}

// --- SearchJob -------------------------------------------------------------

TEST(SearchJob, UninterruptedSegmentEqualsPlainFit) {
  const Dataset data = resume_tiny_binary(21);
  SearchJob job(data, resume_options(21, 10), stub_lineup());
  EXPECT_EQ(job.run_segment(), SearchJob::State::Finished);
  EXPECT_TRUE(job.terminal());
  EXPECT_EQ(job.segments(), 1u);

  AutoML reference;
  solo_run(reference, data, 21, 10);
  expect_resumed_equals_reference(job.automl(), reference, "single segment");
}

TEST(SearchJob, PreemptAtEveryBoundaryResumesExactly) {
  const Dataset data = resume_tiny_binary(22);
  const std::size_t iterations = 8;
  AutoML reference;
  solo_run(reference, data, 22, iterations);

  // Boundary 0 = before the first trial; boundary k = after the k-th commit.
  for (std::size_t kill_at = 0; kill_at <= iterations; ++kill_at) {
    SearchJob job(data, resume_options(22, iterations), stub_lineup());
    bool fired = false;
    const auto preempt_once = [&](std::size_t iteration) {
      if (!fired && iteration == kill_at) {
        fired = true;
        return SearchSignal::Preempt;
      }
      return SearchSignal::Run;
    };
    const SearchJob::State first = job.run_segment(preempt_once);
    if (kill_at < iterations) {
      ASSERT_EQ(first, SearchJob::State::Preempted) << "boundary " << kill_at;
      ASSERT_TRUE(job.has_checkpoint()) << "boundary " << kill_at;
      EXPECT_EQ(job.run_segment(), SearchJob::State::Finished)
          << "boundary " << kill_at;
      EXPECT_EQ(job.segments(), 2u);
    } else {
      // The search hits max_iterations at the same boundary the preempt
      // would land on; completing wins.
      ASSERT_EQ(first, SearchJob::State::Finished);
    }
    expect_resumed_equals_reference(
        job.automl(), reference,
        "preempt at boundary " + std::to_string(kill_at));
  }
}

TEST(SearchJob, CancelStopsWithoutResult) {
  const Dataset data = resume_tiny_binary(23);
  SearchJob job(data, resume_options(23, 10), stub_lineup());
  const auto cancel_at_3 = [](std::size_t iteration) {
    return iteration == 3 ? SearchSignal::Cancel : SearchSignal::Run;
  };
  EXPECT_EQ(job.run_segment(cancel_at_3), SearchJob::State::Cancelled);
  EXPECT_TRUE(job.terminal());
  EXPECT_FALSE(job.automl().fitted());
  EXPECT_EQ(job.automl().history().size(), 3u);
  // Terminal jobs cannot run again.
  EXPECT_THROW(job.run_segment(), InvalidArgument);
}

// --- SearchDaemon: correctness of scheduled searches -----------------------

TEST(SearchDaemon, ConcurrentJobsMatchSoloRuns) {
  const std::vector<std::uint64_t> seeds = {31, 32, 33, 34};
  const std::size_t iterations = 10;
  SearchDaemon daemon({/*slots=*/2, /*trace_capacity=*/512});
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed : seeds) {
    auto data = std::make_shared<const Dataset>(resume_tiny_binary(seed));
    JobOptions job_options;
    job_options.quantum_trials = 3;  // force interleaving while peers wait
    ids.push_back(daemon.submit(data, resume_options(seed, iterations),
                                job_options, stub_lineup()));
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  daemon.wait_all();

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ASSERT_EQ(daemon.state(ids[i]), JobState::Finished) << "job " << ids[i];
    const Dataset data = resume_tiny_binary(seeds[i]);
    AutoML reference;
    solo_run(reference, data, seeds[i], iterations);
    expect_resumed_equals_reference(daemon.automl(ids[i]), reference,
                                    "daemon job " + std::to_string(ids[i]));
    const JsonValue status = daemon.status(ids[i]);
    EXPECT_EQ(status.at("state").str, "finished");
    EXPECT_EQ(status.at("trials").number, static_cast<double>(iterations));
    // Each job streamed its own full trace (run_started .. run_summary,
    // possibly split across segments).
    const RingTraceSink::Window window = daemon.events(ids[i], 0);
    ASSERT_FALSE(window.events.empty());
    EXPECT_EQ(window.events.front().type, "run_started");
    EXPECT_EQ(window.events.back().type, "run_summary");
  }
}

TEST(SearchDaemon, TestControlPreemptionRequeuesAndResumes) {
  const std::uint64_t seed = 41;
  const std::size_t iterations = 9;
  SearchDaemon daemon({/*slots=*/1, /*trace_capacity=*/512});
  auto data = std::make_shared<const Dataset>(resume_tiny_binary(seed));
  JobOptions job_options;
  job_options.quantum_trials = 0;
  std::atomic<bool> fired{false};
  job_options.test_control = [&](std::size_t iteration) {
    if (!fired.load() && iteration == 4) {
      fired.store(true);
      return SearchSignal::Preempt;
    }
    return SearchSignal::Run;
  };
  const std::uint64_t id = daemon.submit(data, resume_options(seed, iterations),
                                         job_options, stub_lineup());
  daemon.wait(id);
  ASSERT_EQ(daemon.state(id), JobState::Finished);
  const JsonValue status = daemon.status(id);
  EXPECT_EQ(status.at("preemptions").number, 1.0);
  EXPECT_EQ(status.at("segments").number, 2.0);

  AutoML reference;
  solo_run(reference, *data, seed, iterations);
  expect_resumed_equals_reference(daemon.automl(id), reference,
                                  "preempted daemon job");
}

TEST(SearchDaemon, PreemptApiEvictsARunningJob) {
  const std::uint64_t seed = 42;
  const std::size_t iterations = 12;
  SearchDaemon daemon({/*slots=*/1, /*trace_capacity=*/512});
  auto data = std::make_shared<const Dataset>(resume_tiny_binary(seed));

  // Gate the segment thread OUTSIDE the daemon lock (on_trial_committed is
  // an AutoML hook, not a daemon one) so preempt() provably lands while the
  // job is mid-segment.
  std::atomic<bool> reached{false};
  std::atomic<bool> release{false};
  AutoMLOptions options = resume_options(seed, iterations);
  options.on_trial_committed = [&](std::size_t iteration) {
    if (iteration == 1) {
      reached.store(true);
      while (!release.load()) std::this_thread::yield();
    }
  };
  JobOptions job_options;
  job_options.quantum_trials = 0;
  const std::uint64_t id =
      daemon.submit(data, options, job_options, stub_lineup());
  while (!reached.load()) std::this_thread::yield();

  EXPECT_TRUE(daemon.preempt(id));   // running -> signalled
  EXPECT_FALSE(daemon.preempt(99));  // unknown id
  release.store(true);
  daemon.wait(id);

  ASSERT_EQ(daemon.state(id), JobState::Finished);
  EXPECT_FALSE(daemon.preempt(id));  // terminal
  const JsonValue status = daemon.status(id);
  EXPECT_GE(status.at("preemptions").number, 1.0);

  AutoML reference;
  add_resume_lineup(reference);
  AutoMLOptions solo = resume_options(seed, iterations);
  reference.fit(*data, solo);
  expect_resumed_equals_reference(daemon.automl(id), reference,
                                  "explicitly preempted job");
}

TEST(SearchDaemon, HigherPriorityEvictsLowerPriority) {
  const std::size_t iterations = 8;
  SearchDaemon daemon({/*slots=*/1, /*trace_capacity=*/512});
  auto data_low = std::make_shared<const Dataset>(resume_tiny_binary(51));
  auto data_high = std::make_shared<const Dataset>(resume_tiny_binary(52));

  std::atomic<bool> reached{false};
  std::atomic<bool> release{false};
  AutoMLOptions low_options = resume_options(51, iterations);
  low_options.on_trial_committed = [&](std::size_t iteration) {
    if (iteration == 1) {
      reached.store(true);
      while (!release.load()) std::this_thread::yield();
    }
  };
  JobOptions low;
  low.priority = 0;
  low.quantum_trials = 0;  // would never yield voluntarily
  const std::uint64_t low_id =
      daemon.submit(data_low, low_options, low, stub_lineup());
  while (!reached.load()) std::this_thread::yield();

  // Submitted while the low-priority job holds the only slot: the scheduler
  // must evict it rather than wait for it.
  JobOptions high;
  high.priority = 5;
  const std::uint64_t high_id = daemon.submit(
      data_high, resume_options(52, iterations), high, stub_lineup());
  release.store(true);
  daemon.wait_all();

  ASSERT_EQ(daemon.state(low_id), JobState::Finished);
  ASSERT_EQ(daemon.state(high_id), JobState::Finished);
  EXPECT_GE(daemon.status(low_id).at("preemptions").number, 1.0);
  EXPECT_EQ(daemon.status(high_id).at("preemptions").number, 0.0);

  for (const auto& [id, seed] :
       {std::pair<std::uint64_t, std::uint64_t>{low_id, 51}, {high_id, 52}}) {
    const Dataset data = resume_tiny_binary(seed);
    AutoML reference;
    solo_run(reference, data, seed, iterations);
    expect_resumed_equals_reference(daemon.automl(id), reference,
                                    "priority job " + std::to_string(id));
  }
}

TEST(SearchDaemon, QuantumSharesOneSlotRoundRobin) {
  const std::size_t iterations = 8;
  SearchDaemon daemon({/*slots=*/1, /*trace_capacity=*/512});
  JobOptions job_options;
  job_options.quantum_trials = 2;
  std::vector<std::uint64_t> ids;
  for (std::uint64_t seed : {61, 62}) {
    auto data = std::make_shared<const Dataset>(resume_tiny_binary(seed));
    ids.push_back(daemon.submit(data, resume_options(seed, iterations),
                                job_options, stub_lineup()));
  }
  daemon.wait_all();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(daemon.state(ids[i]), JobState::Finished);
    // 8 trials at a 2-trial quantum with a peer always waiting: each job
    // yielded the slot several times.
    EXPECT_GE(daemon.status(ids[i]).at("preemptions").number, 2.0);
    const std::uint64_t seed = i == 0 ? 61 : 62;
    const Dataset data = resume_tiny_binary(seed);
    AutoML reference;
    solo_run(reference, data, seed, iterations);
    expect_resumed_equals_reference(daemon.automl(ids[i]), reference,
                                    "round-robin job " + std::to_string(i));
  }
}

TEST(SearchDaemon, CancelWaitingAndRunningJobs) {
  SearchDaemon daemon({/*slots=*/1, /*trace_capacity=*/512});
  auto data = std::make_shared<const Dataset>(resume_tiny_binary(71));

  std::atomic<bool> reached{false};
  std::atomic<bool> release{false};
  AutoMLOptions gated = resume_options(71, 20);
  gated.on_trial_committed = [&](std::size_t iteration) {
    if (iteration == 1) {
      reached.store(true);
      while (!release.load()) std::this_thread::yield();
    }
  };
  const std::uint64_t running =
      daemon.submit(data, gated, JobOptions{}, stub_lineup());
  const std::uint64_t queued = daemon.submit(
      data, resume_options(72, 20), JobOptions{}, stub_lineup());
  while (!reached.load()) std::this_thread::yield();

  // Queued job dies immediately; running job at its next boundary.
  EXPECT_TRUE(daemon.cancel(queued));
  EXPECT_EQ(daemon.state(queued), JobState::Cancelled);
  EXPECT_TRUE(daemon.cancel(running));
  EXPECT_FALSE(daemon.cancel(queued));  // already terminal
  EXPECT_FALSE(daemon.cancel(99));      // unknown
  release.store(true);
  daemon.wait_all();

  ASSERT_EQ(daemon.state(running), JobState::Cancelled);
  // A cancelled search stopped at a boundary mid-way: some trials ran, no
  // result exists.
  const JsonValue status = daemon.status(running);
  EXPECT_EQ(status.at("reason").str, "cancelled");
  EXPECT_LT(status.at("trials").number, 20.0);
  EXPECT_THROW(daemon.result(running), InvalidArgument);
  EXPECT_THROW(daemon.state(99), InvalidArgument);
}

TEST(SearchDaemon, DeadlineCancelsRunningAndQueuedJobs) {
  SearchDaemon daemon({/*slots=*/1, /*trace_capacity=*/512});
  auto data = std::make_shared<const Dataset>(resume_tiny_binary(81));

  // The running job outlives its deadline mid-segment: the boundary after
  // the stalled commit sees >100ms elapsed against a 50ms deadline.
  AutoMLOptions stalled = resume_options(81, 20);
  stalled.on_trial_committed = [](std::size_t iteration) {
    if (iteration == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    }
  };
  JobOptions mid_run;
  mid_run.deadline_seconds = 0.05;
  const std::uint64_t running =
      daemon.submit(data, stalled, mid_run, stub_lineup());
  // The queued job's deadline passes while it waits for the slot: it is
  // cancelled by the scheduler without ever running a trial.
  JobOptions tight;
  tight.deadline_seconds = 1e-9;
  const std::uint64_t queued = daemon.submit(
      data, resume_options(82, 20), tight, stub_lineup());
  daemon.wait_all();

  ASSERT_EQ(daemon.state(running), JobState::Cancelled);
  ASSERT_EQ(daemon.state(queued), JobState::Cancelled);
  EXPECT_EQ(daemon.status(running).at("reason").str, "deadline exceeded");
  EXPECT_EQ(daemon.status(queued).at("reason").str, "deadline exceeded");
  EXPECT_GE(daemon.status(running).at("trials").number, 1.0);
  EXPECT_EQ(daemon.status(queued).at("trials").number, 0.0);
}

TEST(SearchDaemon, ShutdownCancelsEverythingAndRejectsSubmit) {
  SearchDaemon daemon({/*slots=*/1, /*trace_capacity=*/512});
  auto data = std::make_shared<const Dataset>(resume_tiny_binary(91));
  // max_iterations 0 = unbounded: these searches only stop when cancelled.
  const std::uint64_t a =
      daemon.submit(data, resume_options(91, 0), JobOptions{}, stub_lineup());
  const std::uint64_t b =
      daemon.submit(data, resume_options(92, 0), JobOptions{}, stub_lineup());
  daemon.shutdown();
  EXPECT_EQ(daemon.state(a), JobState::Cancelled);
  EXPECT_EQ(daemon.state(b), JobState::Cancelled);
  EXPECT_THROW(daemon.submit(data, resume_options(93, 5), JobOptions{},
                             stub_lineup()),
               InvalidArgument);
  daemon.shutdown();  // idempotent
}

// --- SearchService: the wire protocol --------------------------------------

// A service whose submits run the deterministic stub searches.
SearchService::Customize stub_customize() {
  return [](AutoMLOptions& options, std::vector<LearnerPtr>& extra_learners) {
    AutoMLOptions wire = options;  // keep decoded wire fields
    options = resume_options(wire.seed, wire.max_iterations);
    options.time_budget_seconds = wire.time_budget_seconds;
    extra_learners = stub_lineup();
  };
}

JsonValue request_of(const std::string& text) { return parse_json(text); }

TEST(SearchService, SubmitWaitResultEventsRoundTrip) {
  SearchDaemon daemon({/*slots=*/2, /*trace_capacity=*/512});
  SearchService service(daemon);
  service.set_customize(stub_customize());

  JsonValue response = service.handle(request_of(
      R"({"op":"submit","synthetic":{"task":"binary","rows":100,"features":5,
          "seed":7},"budget_seconds":1000000,"max_iterations":6,
          "name":"wire-job","seed":7})"));
  ASSERT_TRUE(response.at("ok").boolean) << dump_json_compact(response);
  EXPECT_EQ(response.at("id").number, 1.0);

  response = service.handle(request_of(R"({"op":"wait","id":1})"));
  ASSERT_TRUE(response.at("ok").boolean);
  EXPECT_EQ(response.at("job").at("state").str, "finished");
  EXPECT_EQ(response.at("job").at("name").str, "wire-job");

  response = service.handle(request_of(R"({"op":"result","id":1})"));
  ASSERT_TRUE(response.at("ok").boolean);
  EXPECT_FALSE(response.at("result").at("best_learner").str.empty());
  EXPECT_EQ(response.at("result").at("n_trials").number, 6.0);

  // Stream the trace in two pages; together they cover every event.
  response = service.handle(request_of(R"({"op":"events","id":1,"since":0})"));
  ASSERT_TRUE(response.at("ok").boolean);
  const std::size_t total = response.at("events").array.size();
  ASSERT_GT(total, 2u);
  EXPECT_EQ(response.at("events").array.front().at("type").str, "run_started");
  EXPECT_EQ(response.at("events").array.front().at("seq").number, 0.0);
  const double next = response.at("next").number;
  response = service.handle(
      request_of(R"({"op":"events","id":1,"since":)" +
                 std::to_string(static_cast<std::size_t>(next) - 1) + "}"));
  ASSERT_TRUE(response.at("ok").boolean);
  ASSERT_EQ(response.at("events").array.size(), 1u);
  EXPECT_EQ(response.at("events").array.front().at("type").str, "run_summary");
}

TEST(SearchService, ListPingCancelAndShutdown) {
  SearchDaemon daemon({/*slots=*/2, /*trace_capacity=*/512});
  SearchService service(daemon);
  service.set_customize(stub_customize());

  JsonValue response = service.handle(request_of(R"({"op":"ping"})"));
  ASSERT_TRUE(response.at("ok").boolean);
  EXPECT_EQ(response.at("slots").number, 2.0);

  service.handle(request_of(
      R"({"op":"submit","synthetic":{"rows":100,"features":5,"seed":3},
          "budget_seconds":1000000,"max_iterations":4,"seed":3})"));
  service.handle(request_of(
      R"({"op":"submit","synthetic":{"rows":100,"features":5,"seed":3},
          "budget_seconds":1000000,"max_iterations":4,"seed":4})"));
  response = service.handle(request_of(R"({"op":"cancel","id":2})"));
  ASSERT_TRUE(response.at("ok").boolean);

  response = service.handle(request_of(R"({"op":"wait_all"})"));
  ASSERT_TRUE(response.at("ok").boolean);
  ASSERT_EQ(response.at("jobs").array.size(), 2u);

  EXPECT_FALSE(service.shutdown_requested());
  response = service.handle(request_of(R"({"op":"shutdown"})"));
  ASSERT_TRUE(response.at("ok").boolean);
  EXPECT_TRUE(service.shutdown_requested());
  // Submitting into a shut-down daemon is an error response, not a throw.
  response = service.handle(request_of(
      R"({"op":"submit","synthetic":{"rows":100},"max_iterations":2})"));
  EXPECT_FALSE(response.at("ok").boolean);
}

TEST(SearchService, ErrorResponsesNeverThrowOrKillTheStream) {
  SearchDaemon daemon({/*slots=*/1, /*trace_capacity=*/512});
  SearchService service(daemon);

  const char* bad_requests[] = {
      R"({"op":"frobnicate"})",               // unknown op
      R"({"op":"status","id":7})",            // unknown job
      R"({"op":"status"})",                   // missing id
      R"({"op":"submit"})",                   // no dataset
      R"({"op":"submit","csv":"/nonexistent.csv"})",  // unreadable file
      R"({"op":"submit","synthetic":{"task":"sudoku"}})",  // bad task
      R"([1,2,3])",                           // not an object
      R"({})",                                // no op
  };
  for (const char* text : bad_requests) {
    const JsonValue response = service.handle(request_of(text));
    ASSERT_TRUE(response.is_object()) << text;
    EXPECT_FALSE(response.at("ok").boolean) << text;
    EXPECT_FALSE(response.at("error").str.empty()) << text;
  }
  // Malformed JSON is caught at the line layer.
  const std::string response = service.handle_line("{nope");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("bad request JSON"), std::string::npos);
}

TEST(SearchService, ServeStreamSpeaksOneLinePerRequest) {
  SearchDaemon daemon({/*slots=*/1, /*trace_capacity=*/512});
  SearchService service(daemon);
  service.set_customize(stub_customize());
  std::istringstream in(
      "{\"op\":\"ping\"}\n"
      "\n"  // blank lines are ignored
      "{\"op\":\"submit\",\"synthetic\":{\"rows\":100,\"features\":5,"
      "\"seed\":5},\"budget_seconds\":1000000,\"max_iterations\":3}\n"
      "{\"op\":\"wait\",\"id\":1}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"ping\"}\n");  // after shutdown: never read
  std::ostringstream out;
  line_server::serve_lines(
      in, out, [&](const std::string& line) { return service.handle_line(line); },
      [&] { return service.shutdown_requested(); });
  std::vector<std::string> lines;
  std::istringstream parse(out.str());
  for (std::string line; std::getline(parse, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"pong\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":1"), std::string::npos);
  EXPECT_NE(lines[2].find("\"state\":\"finished\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"bye\":true"), std::string::npos);
  EXPECT_TRUE(service.shutdown_requested());
}

// --- strict wire integers (regression: silent truncation) ------------------

TEST(SearchService, RejectsFractionalAndOversizedIntegerFields) {
  SearchDaemon daemon({/*slots=*/1, /*trace_capacity=*/512});
  SearchService service(daemon);
  service.set_customize(stub_customize());

  // Before the strict decoders, "seed":1.5 silently became seed=1 and the
  // job ran with options the client never asked for.
  const char* bad_requests[] = {
      R"({"op":"submit","synthetic":{"rows":100},"seed":1.5})",
      R"({"op":"submit","synthetic":{"rows":100},"max_iterations":-3})",
      R"({"op":"submit","synthetic":{"rows":100.5}})",
      R"({"op":"submit","synthetic":{"rows":100},"quantum_trials":2.25})",
      R"({"op":"submit","synthetic":{"rows":100},"seed":1e300})",
      R"({"op":"status","id":1.5})",
      R"({"op":"cancel","id":0})",
      R"({"op":"wait","id":-1})",
      R"({"op":"events","id":1,"since":0.5})",
  };
  for (const char* text : bad_requests) {
    const JsonValue response = service.handle(request_of(text));
    EXPECT_FALSE(response.at("ok").boolean) << text;
    EXPECT_FALSE(response.at("error").str.empty()) << text;
  }
  // Nothing was submitted by any of the rejects.
  EXPECT_EQ(service.handle(request_of(R"({"op":"list"})")).at("jobs").array.size(),
            0u);
  // An exact integral double is fine (JSON has no integer type).
  const JsonValue response = service.handle(request_of(
      R"({"op":"submit","synthetic":{"rows":100,"features":5,"seed":3},
          "budget_seconds":1000000,"max_iterations":2,"seed":2.0})"));
  EXPECT_TRUE(response.at("ok").boolean) << dump_json_compact(response);
  service.handle(request_of(R"({"op":"wait_all"})"));
}

// Regression: "features"/"classes" were static_cast to int (4294967298
// became 2) and "priority" went through an out-of-range double -> int cast
// (undefined behaviour). UBSan cannot catch the latter under GCC, so the
// typed reply is what is asserted.
TEST(SearchService, RejectsOutOfRangeSyntheticShapeAndPriority) {
  SearchDaemon daemon({/*slots=*/1, /*trace_capacity=*/512});
  SearchService service(daemon);
  service.set_customize(stub_customize());

  const std::pair<const char*, const char*> bad_requests[] = {
      {R"({"op":"submit","synthetic":{"rows":100,"features":4294967298}})",
       "features"},
      {R"({"op":"submit","synthetic":{"rows":100,"features":4097}})", "features"},
      {R"({"op":"submit","synthetic":{"rows":100,"features":2.5}})", "features"},
      {R"({"op":"submit","synthetic":{"rows":100,"classes":4294967298}})",
       "classes"},
      {R"({"op":"submit","synthetic":{"rows":100,"classes":257}})", "classes"},
      {R"({"op":"submit","synthetic":{"rows":100,"classes":-2}})", "classes"},
      {R"({"op":"submit","synthetic":{"rows":3000000,"features":8}})",
       "rows x features"},
      {R"({"op":"submit","synthetic":{"rows":1e300}})", "rows"},
      {R"({"op":"submit","synthetic":{"rows":100},"priority":1e300})", "priority"},
      {R"({"op":"submit","synthetic":{"rows":100},"priority":-1e300})", "priority"},
      {R"({"op":"submit","synthetic":{"rows":100},"priority":2147483648})",
       "priority"},
      {R"({"op":"submit","synthetic":{"rows":100},"priority":-2147483649})",
       "priority"},
      {R"({"op":"submit","synthetic":{"rows":100},"priority":1.5})", "priority"},
  };
  for (const auto& [text, field] : bad_requests) {
    const JsonValue response = service.handle(request_of(text));
    EXPECT_FALSE(response.at("ok").boolean) << text;
    EXPECT_NE(response.at("error").str.find(field), std::string::npos)
        << text << " -> " << response.at("error").str;
  }
  EXPECT_EQ(service.handle(request_of(R"({"op":"list"})")).at("jobs").array.size(),
            0u);

  // In-range values, the int extremes of "priority" included, still submit.
  for (const char* text : {
           R"({"op":"submit","synthetic":{"task":"multiclass","rows":100,
               "features":5,"classes":3,"seed":3},"max_iterations":2,
               "priority":-2147483648})",
           R"({"op":"submit","synthetic":{"rows":100,"features":5,"seed":3},
               "max_iterations":2,"priority":2147483647})",
           R"({"op":"submit","synthetic":{"rows":100,"features":5,"seed":3},
               "max_iterations":2,"priority":-3})"}) {
    const JsonValue response = service.handle(request_of(text));
    EXPECT_TRUE(response.at("ok").boolean) << dump_json_compact(response);
  }
  const JsonValue jobs = service.handle(request_of(R"({"op":"wait_all"})"));
  ASSERT_EQ(jobs.at("jobs").array.size(), 3u);
  EXPECT_DOUBLE_EQ(jobs.at("jobs").array[0].at("priority").number, -2147483648.0);
  EXPECT_DOUBLE_EQ(jobs.at("jobs").array[1].at("priority").number, 2147483647.0);
}

// --- dataset cache (regression: stale entries, unbounded growth) -----------

std::string write_csv(const std::string& path, double y0) {
  std::ofstream out(path);
  out << "a,b,y\n";
  for (int i = 0; i < 40; ++i) {
    out << i << "," << (i % 7) << "," << (y0 + i) << "\n";
  }
  return path;
}

TEST(DatasetCache, RewrittenFileIsReparsedNotServedStale) {
  const std::string path = ::testing::TempDir() + "cache_rewrite.csv";
  server::DatasetCache cache;

  write_csv(path, 0.0);
  auto first = cache.load_csv(path, Task::Regression, "y");
  EXPECT_DOUBLE_EQ(first->label(0), 0.0);
  // Unchanged file: the SAME immutable dataset is shared, not reparsed.
  EXPECT_EQ(cache.load_csv(path, Task::Regression, "y").get(), first.get());
  EXPECT_EQ(cache.size(), 1u);

  // Rewrite between two submits — the old cache served the first parse
  // forever; now the content fingerprint forces a reparse.
  write_csv(path, 100.0);
  auto second = cache.load_csv(path, Task::Regression, "y");
  EXPECT_NE(second.get(), first.get());
  EXPECT_DOUBLE_EQ(second->label(0), 100.0);
  EXPECT_EQ(cache.size(), 1u);  // replaced in place, not duplicated

  // The first dataset is still alive for the job that holds it.
  EXPECT_DOUBLE_EQ(first->label(0), 0.0);
}

TEST(DatasetCache, EvictsLeastRecentlyUsedAtCapacity) {
  server::DatasetCache cache(/*max_entries=*/2);
  SyntheticSpec spec;
  spec.n_rows = 30;
  spec.n_features = 3;
  auto first = cache.load_synthetic(spec);
  spec.seed = 2;
  cache.load_synthetic(spec);
  EXPECT_EQ(cache.size(), 2u);

  spec.seed = 1;  // touch the first entry -> seed 2 becomes LRU
  EXPECT_EQ(cache.load_synthetic(spec).get(), first.get());

  spec.seed = 3;  // evicts seed 2
  cache.load_synthetic(spec);
  EXPECT_EQ(cache.size(), 2u);
  spec.seed = 1;  // still cached
  EXPECT_EQ(cache.load_synthetic(spec).get(), first.get());
}

TEST(SearchService, SubmitPicksUpARewrittenCsv) {
  const std::string path = ::testing::TempDir() + "service_rewrite.csv";
  SearchDaemon daemon({/*slots=*/1, /*trace_capacity=*/512});
  SearchService service(daemon);
  service.set_customize(stub_customize());

  write_csv(path, 0.0);
  const std::string submit = R"({"op":"submit","csv":")" + path +
                             R"(","task":"regression","label":"y",
      "budget_seconds":1000000,"max_iterations":2,"seed":1})";
  ASSERT_TRUE(service.handle(request_of(submit)).at("ok").boolean);
  write_csv(path, 100.0);
  ASSERT_TRUE(service.handle(request_of(submit)).at("ok").boolean);
  service.handle(request_of(R"({"op":"wait_all"})"));

  // Both submits parsed their own snapshot of the file.
  EXPECT_EQ(service.dataset_cache().size(), 1u);
  auto current = service.dataset_cache().load_csv(path, Task::Regression, "y");
  EXPECT_DOUBLE_EQ(current->label(0), 100.0);
}

}  // namespace
}  // namespace flaml::testing
