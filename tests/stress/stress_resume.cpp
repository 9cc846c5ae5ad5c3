// Kill-anywhere replay stress (the tentpole test of the checkpoint/resume
// PR): a search killed at ANY trial boundary k and resumed from the
// boundary-k checkpoint must be indistinguishable from the run that was
// never interrupted — byte-identical trial history, final best, and
// run-summary metric totals — serial and parallel (run under TSan via the
// `stress` label). Plus a corrupt-checkpoint fuzz: random truncations and
// bit flips of a real checkpoint file must surface as SerializationError,
// never UB (run under ASan/UBSan).
#include "resume/checkpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "automl/automl.h"
#include "common/error.h"
#include "observe/trace_check.h"
#include "support/prop.h"
#include "support/resume_test_util.h"

namespace flaml {
namespace {

using testing::add_resume_lineup;
using testing::arm_kill;
using testing::expect_resumed_equals_reference;
using testing::KillSignal;
using testing::PropCase;
using testing::resume_options;
using testing::resume_tiny_binary;

std::string unique_path(const PropCase& prop, const std::string& tag) {
  return ::testing::TempDir() + "resume_" + tag + "_" +
         std::to_string(prop.seed) + ".ckpt";
}

// Kill the fit at boundary `kill_at` (checkpointing every trial), capturing
// the killed segment's trace. Expects the KillSignal to actually fire.
void run_killed_fit(AutoML& automl, const Dataset& data, AutoMLOptions options,
                    const std::string& path, std::size_t kill_at) {
  arm_kill(options, path, kill_at);
  add_resume_lineup(automl);
  bool killed = false;
  try {
    automl.fit(data, options);
  } catch (const KillSignal& kill) {
    killed = true;
    EXPECT_EQ(kill.at_iteration, kill_at);
  }
  ASSERT_TRUE(killed) << "fit ran to completion instead of dying at trial "
                      << kill_at;
}

const observe::TraceEvent* find_run_summary(
    const std::vector<observe::TraceEvent>& events) {
  for (const auto& e : events) {
    if (e.type == "run_summary") return &e;
  }
  return nullptr;
}

// The full crash-equivalence check for one (options, kill boundary) pair:
// kill at k, resume, compare against the uninterrupted reference; then
// validate the stitched killed+resumed trace and its run_summary totals.
void check_kill_at(const Dataset& data, const AutoMLOptions& options,
                   const AutoML& reference,
                   const std::vector<observe::TraceEvent>& reference_trace,
                   const std::string& path, std::size_t kill_at,
                   const std::string& what) {
  auto killed_sink = std::make_shared<observe::MemoryTraceSink>();
  AutoMLOptions killed_options = options;
  killed_options.trace_sink = killed_sink;
  AutoML killed;
  run_killed_fit(killed, data, killed_options, path, kill_at);
  if (::testing::Test::HasFatalFailure()) return;

  auto resumed_sink = std::make_shared<observe::MemoryTraceSink>();
  AutoMLOptions resumed_options = options;
  resumed_options.trace_sink = resumed_sink;
  AutoML resumed;
  add_resume_lineup(resumed);
  resumed.resume_from_file(data, resumed_options, path);

  expect_resumed_equals_reference(resumed, reference, what);

  // The stitched trace — the killed segment followed by the resumed one —
  // must satisfy every structural invariant (per-segment started/finished
  // balance, exactly one run_summary, consistent totals).
  std::vector<observe::TraceEvent> stitched = killed_sink->snapshot();
  const std::vector<observe::TraceEvent> resumed_events = resumed_sink->snapshot();
  stitched.insert(stitched.end(), resumed_events.begin(), resumed_events.end());
  const observe::TraceCheckResult check = observe::check_trace_events(stitched);
  EXPECT_TRUE(check.ok()) << what << ": stitched trace invalid: "
                          << (check.errors.empty() ? "" : check.errors.front());
  EXPECT_EQ(check.n_trials, reference.history().size()) << what;

  // run_summary totals match the uninterrupted run's.
  const observe::TraceEvent* resumed_summary = find_run_summary(resumed_events);
  const observe::TraceEvent* reference_summary = find_run_summary(reference_trace);
  ASSERT_NE(resumed_summary, nullptr) << what;
  ASSERT_NE(reference_summary, nullptr) << what;
  EXPECT_DOUBLE_EQ(resumed_summary->fields.at("n_trials").number,
                   reference_summary->fields.at("n_trials").number)
      << what;
  EXPECT_EQ(observe::error_field_value(resumed_summary->fields.at("best_error")),
            observe::error_field_value(reference_summary->fields.at("best_error")))
      << what;
}

// Sweep every kill boundary for one option set.
void sweep_all_boundaries(const PropCase& prop, AutoMLOptions options,
                          const std::string& tag) {
  const Dataset data = resume_tiny_binary(prop.seed | 1);
  auto reference_sink = std::make_shared<observe::MemoryTraceSink>();
  AutoMLOptions reference_options = options;
  reference_options.trace_sink = reference_sink;
  AutoML reference;
  add_resume_lineup(reference);
  reference.fit(data, reference_options);
  const std::size_t n = reference.history().size();
  ASSERT_EQ(n, options.max_iterations);
  const std::vector<observe::TraceEvent> reference_trace =
      reference_sink->snapshot();

  const std::string path = unique_path(prop, tag);
  for (std::size_t k = 1; k <= n; ++k) {
    check_kill_at(data, options, reference, reference_trace, path, k,
                  tag + " kill at " + std::to_string(k) + "/" +
                      std::to_string(n) + " seed " + std::to_string(prop.seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
  std::remove(path.c_str());
}

// --- The headline sweep: serial, every boundary of a 10-trial search ---
FLAML_PROP(ResumeStress, SerialKillAnywhereReplayMatchesUninterrupted, 6) {
  sweep_all_boundaries(prop, resume_options(prop.rng.next(), 10), "serial");
}

// --- Parallel: the checkpoint carries in-flight (pending) trials ---
FLAML_PROP(ResumeStress, ParallelKillAnywhereReplayMatchesUninterrupted, 3) {
  for (int n_parallel : {2, 4}) {
    AutoMLOptions options = resume_options(prop.rng.next(), 12);
    options.n_parallel = n_parallel;
    sweep_all_boundaries(prop, options,
                         "par" + std::to_string(n_parallel));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Round-robin ablation: with the policy-level randomness removed, the
// parallel checkpoint/resume path must also preserve the parallel==serial
// history identity end to end.
FLAML_PROP(ResumeStress, RoundRobinParallelResumeKeepsSerialIdentity, 2) {
  const Dataset data = resume_tiny_binary(prop.seed | 1);
  AutoMLOptions options = resume_options(prop.rng.next(), 12);
  options.learner_choice = LearnerChoice::RoundRobin;

  AutoML serial;
  add_resume_lineup(serial);
  serial.fit(data, options);

  AutoMLOptions par_options = options;
  par_options.n_parallel = 4;
  const std::string path = unique_path(prop, "rr");
  AutoML killed;
  run_killed_fit(killed, data, par_options, path, 6);
  if (::testing::Test::HasFatalFailure()) return;

  AutoML resumed;
  add_resume_lineup(resumed);
  resumed.resume_from_file(data, par_options, path);
  testing::expect_resume_histories_equal(resumed.history(), serial.history(),
                                         "round-robin resumed parallel vs serial");
  std::remove(path.c_str());
}

// --- Corrupt-checkpoint fuzz: damage must always be a typed error ---

// One real mid-search checkpoint file, serialized once and shared by every
// fuzz case (building it per case would dominate the fuzz runtime).
const std::string& fuzz_checkpoint_text() {
  static const std::string text = [] {
    const Dataset data = resume_tiny_binary(97);
    // Per process: ctest -j runs the three fuzz tests that share it at once.
    const std::string path = ::testing::TempDir() + "resume_fuzz_source_" +
                             std::to_string(::getpid()) + ".ckpt";
    AutoMLOptions options = resume_options(17, 10);
    AutoML automl;
    [&] { run_killed_fit(automl, data, options, path, 6); }();
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    std::remove(path.c_str());
    return out.str();
  }();
  return text;
}

FLAML_PROP(ResumeStress, TruncatedCheckpointAlwaysThrows, 60) {
  const std::string& text = fuzz_checkpoint_text();
  ASSERT_FALSE(text.empty());
  // Random cut point, biased to also hit the header in some cases.
  const std::size_t cut = prop.rng.uniform_index(text.size());
  const std::string damaged = text.substr(0, cut);
  EXPECT_THROW(resume::parse_checkpoint(damaged), SerializationError)
      << "truncation to " << cut << " of " << text.size() << " bytes";

  // The same damage through the file loader.
  const std::string path = unique_path(prop, "trunc");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
  }
  EXPECT_THROW(resume::SearchCheckpoint::load(path), SerializationError);
  std::remove(path.c_str());
}

FLAML_PROP(ResumeStress, BitFlippedCheckpointAlwaysThrows, 120) {
  const std::string& text = fuzz_checkpoint_text();
  ASSERT_FALSE(text.empty());
  std::string damaged = text;
  // Flip 1-4 random bits.
  const int n_flips = 1 + static_cast<int>(prop.rng.uniform_index(4));
  for (int i = 0; i < n_flips; ++i) {
    const std::size_t byte = prop.rng.uniform_index(damaged.size());
    damaged[byte] = static_cast<char>(
        damaged[byte] ^ (1u << prop.rng.uniform_index(8)));
  }
  if (damaged == text) return;  // flips cancelled out
  EXPECT_THROW(resume::parse_checkpoint(damaged), SerializationError)
      << n_flips << " bit flips went undetected (seed " << prop.seed << ")";
}

// Structured payload fuzz: past the checksum, a VALID envelope around a
// randomly mutated JSON payload must either load or throw
// SerializationError — never crash, never any other exception type. (ASan/
// UBSan do the memory-safety half of this check.)
FLAML_PROP(ResumeStress, MutatedPayloadNeverEscapesTypedErrors, 80) {
  const JsonValue payload = resume::parse_checkpoint(fuzz_checkpoint_text());
  JsonValue mutated = payload;
  ASSERT_FALSE(mutated.object.empty());
  const std::size_t slot = prop.rng.uniform_index(mutated.object.size());
  switch (prop.rng.uniform_index(4)) {
    case 0:  // drop a top-level field
      mutated.object.erase(mutated.object.begin() +
                           static_cast<std::ptrdiff_t>(slot));
      break;
    case 1:  // retype a field to a random number
      mutated.object[slot].second =
          JsonValue::make_number(prop.rng.uniform(-1e9, 1e9));
      break;
    case 2:  // retype a field to a random string
      mutated.object[slot].second = JsonValue::make_string(
          std::string(1 + prop.rng.uniform_index(8), 'x'));
      break;
    default:  // swap two fields' values (types stay plausible)
      std::swap(mutated.object[slot].second,
                mutated.object[prop.rng.uniform_index(mutated.object.size())]
                    .second);
      break;
  }
  try {
    const resume::SearchCheckpoint loaded =
        resume::SearchCheckpoint::from_json(mutated);
    (void)loaded;  // coincidentally-valid mutation (e.g. swap of equal values)
  } catch (const SerializationError&) {
    // The expected outcome for essentially every mutation.
  }
}

}  // namespace
}  // namespace flaml
