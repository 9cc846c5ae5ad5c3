// Checkpoint/resume unit suite (src/resume): exact component round-trips
// (Rng stream, EciState, Flow2 walk, TrialRunner fingerprint), the
// checksummed container format's corruption detection (truncations, bit
// flips, header tampering — all must surface as SerializationError, never
// UB), kill-at-k crash equivalence at a single boundary (the full
// kill-ANYWHERE sweep lives in tests/stress/stress_resume.cpp), option-
// fingerprint mismatch rejection, the ensemble/"not serializable" error
// path, the best-model blob, and post-fit warm-starting.
#include "resume/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "automl/automl.h"
#include "automl/eci.h"
#include "common/error.h"
#include "common/rng.h"
#include "resume/serial_util.h"
#include "support/corruption.h"
#include "support/resume_test_util.h"
#include "tuners/flow2.h"

namespace flaml {
namespace {

using testing::add_resume_lineup;
using testing::arm_kill;
using testing::expect_every_bit_flip_throws;
using testing::expect_every_truncation_throws;
using testing::expect_resumed_equals_reference;
using testing::KillSignal;
using testing::resume_options;
using testing::resume_tiny_binary;
using testing::StubLearner;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Run an interrupted-at-k fit: returns after the KillSignal fired, leaving
// the boundary-k checkpoint at `path`.
void run_killed_fit(AutoML& automl, const Dataset& data, AutoMLOptions options,
                    const std::string& path, std::size_t kill_at) {
  arm_kill(options, path, kill_at);
  add_resume_lineup(automl);
  try {
    automl.fit(data, options);
    FAIL() << "fit was expected to be killed at trial " << kill_at;
  } catch (const KillSignal& kill) {
    EXPECT_EQ(kill.at_iteration, kill_at);
  }
}

// ---------------------------------------------------------------------------
// Component round-trips
// ---------------------------------------------------------------------------

TEST(ResumeSerial, RngStreamRoundTripsThroughJson) {
  Rng original(42);
  for (int i = 0; i < 17; ++i) original.uniform();
  original.normal();  // populate the cached Box-Muller pair

  Rng restored(7);  // deliberately different stream
  resume::restore_rng_value(restored, resume::json_rng(original));
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(original.next(), restored.next()) << "draw " << i;
  }
  ASSERT_DOUBLE_EQ(original.normal(), restored.normal());
}

TEST(ResumeSerial, RngRestoreRejectsZeroState) {
  JsonValue j = resume::json_rng(Rng(1));
  JsonValue zeros = JsonValue::make_array();
  for (int i = 0; i < 4; ++i) zeros.push(resume::json_u64(0));
  j.set("s", zeros);
  Rng rng(1);
  EXPECT_THROW(resume::restore_rng_value(rng, j), SerializationError);
}

TEST(ResumeEci, StateRoundTripsExactly) {
  EciState state;
  state.initial_eci1 = 0.25;
  state.record(1.5, 0.4);
  state.record(2.0, 0.3);
  state.record(0.5, 0.35);

  const EciState restored = EciState::from_json(state.to_json());
  EXPECT_DOUBLE_EQ(restored.k0, state.k0);
  EXPECT_DOUBLE_EQ(restored.k1, state.k1);
  EXPECT_DOUBLE_EQ(restored.k2, state.k2);
  EXPECT_DOUBLE_EQ(restored.best_error, state.best_error);
  EXPECT_DOUBLE_EQ(restored.prev_best_error, state.prev_best_error);
  EXPECT_DOUBLE_EQ(restored.last_trial_cost, state.last_trial_cost);
  EXPECT_EQ(restored.n_trials, state.n_trials);
  EXPECT_DOUBLE_EQ(restored.initial_eci1, state.initial_eci1);
  // The derived quantities the controller actually consumes.
  EXPECT_DOUBLE_EQ(restored.eci1(), state.eci1());
  EXPECT_DOUBLE_EQ(restored.eci(0.3, 2.0, true), state.eci(0.3, 2.0, true));
}

TEST(ResumeEci, FromJsonRejectsInconsistentTotals) {
  EciState state;
  state.record(1.0, 0.5);
  state.record(1.0, 0.4);
  JsonValue j = state.to_json();
  j.set("k2", resume::json_double(state.k1 + 1.0));  // violates k2 <= k1
  EXPECT_THROW(EciState::from_json(j), SerializationError);

  JsonValue j2 = state.to_json();
  j2.set("best_error", resume::json_double(std::nan("")));
  EXPECT_THROW(EciState::from_json(j2), SerializationError);

  JsonValue j3 = state.to_json();
  j3.object.erase(j3.object.begin());  // drop a required field
  EXPECT_THROW(EciState::from_json(j3), SerializationError);
}

TEST(ResumeFlow2, RestoredTunerContinuesTheWalkBitForBit) {
  const ConfigSpace space = StubLearner("stub", 1.0).space(
      Task::BinaryClassification, 1000);
  // A deterministic, nontrivial error surface for the walk.
  const auto error_of = [](const Config& c) {
    return std::abs(c.at("slope") - 1.3) + 0.001 * c.at("units");
  };

  Flow2 original(space, /*seed=*/99);
  original.set_adaptation(true);
  for (int i = 0; i < 25; ++i) original.tell(error_of(original.ask()));

  Flow2 restored(space, /*seed=*/1);  // different seed: state must not matter
  restored.from_json(original.to_json());

  EXPECT_DOUBLE_EQ(restored.step(), original.step());
  EXPECT_EQ(restored.best_config(), original.best_config());
  EXPECT_DOUBLE_EQ(restored.best_error(), original.best_error());
  restored.set_adaptation(true);
  for (int i = 0; i < 40; ++i) {
    const Config a = original.ask();
    const Config b = restored.ask();
    ASSERT_EQ(a, b) << "walk diverged at continued step " << i;
    const double err = error_of(a);
    original.tell(err);
    restored.tell(err);
    ASSERT_EQ(original.converged(), restored.converged());
  }
}

TEST(ResumeFlow2, FromJsonRejectsWrongSpaceAndCorruptFields) {
  const ConfigSpace space = StubLearner("stub", 1.0).space(
      Task::BinaryClassification, 1000);
  Flow2 tuner(space, 5);
  tuner.tell(0.5 + 0.0 * tuner.ask().at("slope"));
  const JsonValue j = tuner.to_json();

  // Different dimensionality.
  ConfigSpace other;
  other.add_float("x", 0.0, 1.0, 0.5);
  Flow2 mismatched(other, 5);
  EXPECT_THROW(mismatched.from_json(j), SerializationError);

  // Non-positive step.
  JsonValue bad_step = j;
  bad_step.set("step", resume::json_double(0.0));
  Flow2 target(space, 5);
  EXPECT_THROW(target.from_json(bad_step), SerializationError);

  // Incumbent outside [0,1]^d.
  const JsonValue* inc = j.find("incumbent");
  if (inc != nullptr && inc->is_array() && !inc->array.empty()) {
    JsonValue bad_inc = j;
    JsonValue moved = *inc;
    moved.array[0] = resume::json_double(2.0);
    bad_inc.set("incumbent", moved);
    EXPECT_THROW(target.from_json(bad_inc), SerializationError);
  }
}

// ---------------------------------------------------------------------------
// Container format: any damage is a typed error
// ---------------------------------------------------------------------------

JsonValue small_payload() {
  JsonValue payload = JsonValue::make_object();
  payload.set("hello", JsonValue::make_string("world"));
  payload.set("n", JsonValue::make_number(3.0));
  return payload;
}

TEST(ResumeContainer, SerializeParseRoundTrip) {
  const std::string text = resume::serialize_checkpoint(small_payload());
  ASSERT_EQ(text.rfind("flaml-checkpoint v4 ", 0), 0u) << text;
  const JsonValue payload = resume::parse_checkpoint(text);
  EXPECT_EQ(payload.at("hello").str, "world");
  EXPECT_DOUBLE_EQ(payload.at("n").number, 3.0);
}

// The container bytes are pinned, so a change to the envelope code cannot
// silently change what a checkpoint file holds.
TEST(ResumeContainer, SerializedBytesArePinned) {
  const std::string text = resume::serialize_checkpoint(small_payload());
  EXPECT_EQ(text.size(), 63u) << text;
  EXPECT_EQ(fnv1a64(text), 0x5ec436a8a0c8af70ULL) << text;
}

TEST(ResumeContainer, EveryTruncationThrows) {
  const std::string text = resume::serialize_checkpoint(small_payload());
  expect_every_truncation_throws(
      text, [](const std::string& damaged) { resume::parse_checkpoint(damaged); });
}

TEST(ResumeContainer, EveryBitFlipThrows) {
  const std::string text = resume::serialize_checkpoint(small_payload());
  expect_every_bit_flip_throws(
      text, [](const std::string& damaged) { resume::parse_checkpoint(damaged); });
}

TEST(ResumeContainer, HeaderTamperingThrows) {
  const std::string text = resume::serialize_checkpoint(small_payload());
  const std::size_t newline = text.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const std::string payload = text.substr(newline + 1);

  EXPECT_THROW(resume::parse_checkpoint("flaml-model v2 1 0\n" + payload),
               SerializationError);
  // A non-current version (the retired v1 and v3 here) must be rejected,
  // not silently migrated.
  for (const std::string old_version : {"v1", "v3"}) {
    EXPECT_THROW(resume::parse_checkpoint("flaml-checkpoint " + old_version + " " +
                                          std::to_string(payload.size()) + " 0\n" +
                                          payload),
                 SerializationError)
        << old_version;
  }
  // Declared length shorter / longer than the actual payload.
  EXPECT_THROW(
      resume::parse_checkpoint("flaml-checkpoint v4 " +
                               std::to_string(payload.size() - 1) + " 0\n" +
                               payload),
      SerializationError);
  // Trailing tokens in the header line.
  EXPECT_THROW(resume::parse_checkpoint(text.substr(0, newline) + " junk\n" + payload),
               SerializationError);
  // Extra trailing garbage after a valid envelope.
  EXPECT_THROW(resume::parse_checkpoint(text + "x"), SerializationError);
  // Absurd declared size must not allocate.
  EXPECT_THROW(
      resume::parse_checkpoint("flaml-checkpoint v4 99999999999999 0\n"),
      SerializationError);
}

TEST(ResumeContainer, MissingFileThrows) {
  EXPECT_THROW(resume::SearchCheckpoint::load(
                   tmp_path("no_such_checkpoint.ckpt")),
               SerializationError);
}

TEST(ResumeContainer, BlobHexRoundTrip) {
  std::string bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<char>(i));
  EXPECT_EQ(resume::decode_blob(resume::encode_blob(bytes)), bytes);
  EXPECT_EQ(resume::encode_blob(""), "");
  EXPECT_THROW(resume::decode_blob("abc"), SerializationError);   // odd length
  EXPECT_THROW(resume::decode_blob("zz"), SerializationError);    // non-hex
}

// ---------------------------------------------------------------------------
// Whole-checkpoint round-trip and payload-level corruption
// ---------------------------------------------------------------------------

TEST(ResumeCheckpoint, FileRoundTripIsByteStable) {
  const Dataset data = resume_tiny_binary(11);
  const std::string path = tmp_path("roundtrip.ckpt");
  AutoML automl;
  run_killed_fit(automl, data, resume_options(3, 10), path, 5);

  const resume::SearchCheckpoint loaded = resume::SearchCheckpoint::load(path);
  EXPECT_EQ(loaded.iteration, 5u);
  EXPECT_EQ(loaded.history.size(), 5u);
  EXPECT_EQ(loaded.learners.size(), 3u);

  // load(save(x)) is the identity on the serialized bytes: re-saving the
  // loaded checkpoint reproduces the original file exactly.
  const std::string path2 = tmp_path("roundtrip2.ckpt");
  loaded.save(path2);
  EXPECT_EQ(read_file(path2), read_file(path));
}

TEST(ResumeCheckpoint, PayloadFieldCorruptionThrows) {
  const Dataset data = resume_tiny_binary(11);
  const std::string path = tmp_path("payload_corrupt.ckpt");
  AutoML automl;
  run_killed_fit(automl, data, resume_options(3, 10), path, 4);
  const JsonValue payload = resume::read_checkpoint_file(path);
  ASSERT_NO_THROW(resume::SearchCheckpoint::from_json(payload));

  {
    JsonValue bad = payload;
    bad.set("version", JsonValue::make_number(resume::kCheckpointVersion + 1));
    EXPECT_THROW(resume::SearchCheckpoint::from_json(bad), SerializationError);
  }
  {
    // iteration != history.size()
    JsonValue bad = payload;
    bad.set("iteration", resume::json_u64(3));
    EXPECT_THROW(resume::SearchCheckpoint::from_json(bad), SerializationError);
  }
  {
    JsonValue bad = payload;
    bad.set("elapsed_seconds", resume::json_double(-1.0));
    EXPECT_THROW(resume::SearchCheckpoint::from_json(bad), SerializationError);
  }
  {
    // best_learner outside the lineup.
    JsonValue bad = payload;
    bad.set("best_learner", JsonValue::make_string("not_a_learner"));
    EXPECT_THROW(resume::SearchCheckpoint::from_json(bad), SerializationError);
  }
  {
    JsonValue bad = payload;
    bad.set("resampling", JsonValue::make_string("bootstrap"));
    EXPECT_THROW(resume::SearchCheckpoint::from_json(bad), SerializationError);
  }
  {
    JsonValue bad = payload;
    bad.set("learners", JsonValue::make_array());  // empty lineup
    EXPECT_THROW(resume::SearchCheckpoint::from_json(bad), SerializationError);
  }
}

// ---------------------------------------------------------------------------
// Crash equivalence at one boundary (the stress suite sweeps every k)
// ---------------------------------------------------------------------------

TEST(ResumeReplay, SerialKillAtBoundaryMatchesUninterrupted) {
  const Dataset data = resume_tiny_binary(21);
  const AutoMLOptions options = resume_options(7, 10);

  AutoML reference;
  add_resume_lineup(reference);
  reference.fit(data, options);
  ASSERT_EQ(reference.history().size(), 10u);

  const std::string path = tmp_path("serial_kill.ckpt");
  AutoML killed;
  run_killed_fit(killed, data, options, path, 4);

  AutoML resumed;
  add_resume_lineup(resumed);
  resumed.resume_from_file(data, options, path);
  expect_resumed_equals_reference(resumed, reference, "serial kill at 4");
  EXPECT_TRUE(resumed.fitted());
}

TEST(ResumeReplay, ParallelKillAtBoundaryMatchesUninterrupted) {
  const Dataset data = resume_tiny_binary(23);
  AutoMLOptions options = resume_options(9, 12);
  options.n_parallel = 3;

  AutoML reference;
  add_resume_lineup(reference);
  reference.fit(data, options);
  ASSERT_EQ(reference.history().size(), 12u);

  const std::string path = tmp_path("parallel_kill.ckpt");
  AutoML killed;
  run_killed_fit(killed, data, options, path, 6);

  AutoML resumed;
  add_resume_lineup(resumed);
  resumed.resume_from_file(data, options, path);
  expect_resumed_equals_reference(resumed, reference, "parallel kill at 6");
}

TEST(ResumeReplay, FingerprintMismatchIsRejected) {
  const Dataset data = resume_tiny_binary(21);
  const AutoMLOptions options = resume_options(7, 10);
  const std::string path = tmp_path("fingerprint.ckpt");
  AutoML killed;
  run_killed_fit(killed, data, options, path, 4);

  {
    AutoMLOptions wrong = options;
    wrong.seed = options.seed + 1;
    AutoML automl;
    add_resume_lineup(automl);
    EXPECT_THROW(automl.resume_from_file(data, wrong, path),
                 SerializationError);
  }
  {
    AutoMLOptions wrong = options;
    wrong.estimator_list = {"stub_fast", "stub_mid"};  // lineup shrank
    AutoML automl;
    add_resume_lineup(automl);
    EXPECT_THROW(automl.resume_from_file(data, wrong, path),
                 SerializationError);
  }
  {
    AutoMLOptions wrong = options;
    wrong.metric = "log_loss";  // checkpoint was taken under the default
    AutoML automl;
    add_resume_lineup(automl);
    EXPECT_THROW(automl.resume_from_file(data, wrong, path),
                 SerializationError);
  }
}

// ---------------------------------------------------------------------------
// Ensemble interaction and the best-model blob
// ---------------------------------------------------------------------------

TEST(ResumeEnsemble, EnsembleModelsAreNotSerializableButSearchStateIs) {
  const Dataset data = resume_tiny_binary(31);
  AutoMLOptions options = resume_options(5, 8);
  options.enable_ensemble = true;

  AutoML reference;
  add_resume_lineup(reference);
  reference.fit(data, options);
  ASSERT_TRUE(reference.fitted());

  // The documented error path: a blended ensemble has no single-model blob.
  std::ostringstream out;
  EXPECT_THROW(reference.save_best_model(out), InvalidArgument);
  // A post-fit checkpoint still works — it just omits the model.
  EXPECT_TRUE(reference.checkpoint_to().model_blob.empty());

  // Crash mid-search and resume with the ensemble still enabled: the search
  // replays identically and the resumed fit re-trains the ensemble.
  const std::string path = tmp_path("ensemble_kill.ckpt");
  AutoML killed;
  run_killed_fit(killed, data, options, path, 3);

  AutoML resumed;
  add_resume_lineup(resumed);
  resumed.resume_from_file(data, options, path);
  expect_resumed_equals_reference(resumed, reference, "ensemble kill at 3");
  ASSERT_TRUE(resumed.fitted());
  const Predictions a = resumed.predict(DataView(data));
  const Predictions b = reference.predict(DataView(data));
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.values[i], b.values[i]) << "prediction " << i;
  }
}

TEST(ResumeModelBlob, PostFitCheckpointCarriesALoadableModel) {
  const Dataset data = resume_tiny_binary(41);
  AutoMLOptions options;
  options.time_budget_seconds = 1e6;
  options.max_iterations = 4;
  options.initial_sample_size = 32;
  options.resampling = ResamplingPolicy::ForceHoldout;
  options.estimator_list = {"lgbm"};
  options.seed = 2;

  AutoML automl;
  automl.fit(data, options);
  ASSERT_TRUE(automl.fitted());

  const resume::SearchCheckpoint ckpt = automl.checkpoint_to();
  ASSERT_FALSE(ckpt.model_blob.empty());

  // The blob is the save_best_model format; load it without any dataset.
  std::istringstream in(ckpt.model_blob);
  const std::unique_ptr<Model> model = load_automl_model(in);
  ASSERT_NE(model, nullptr);
  const Predictions direct = automl.predict(DataView(data));
  const Predictions loaded = model->predict(DataView(data));
  ASSERT_EQ(direct.values.size(), loaded.values.size());
  for (std::size_t i = 0; i < direct.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(direct.values[i], loaded.values[i]) << "prediction " << i;
  }

  // And the checkpoint survives its own file container.
  const std::string path = tmp_path("model_blob.ckpt");
  ckpt.save(path);
  EXPECT_EQ(resume::SearchCheckpoint::load(path).model_blob, ckpt.model_blob);
}

TEST(ResumeModelBlob, StubModelsCheckpointWithoutABlob) {
  // StubLearner models do not implement save(); a post-fit checkpoint must
  // still capture the search state instead of throwing.
  const Dataset data = resume_tiny_binary(43);
  AutoML automl;
  add_resume_lineup(automl);
  automl.fit(data, resume_options(3, 6));
  ASSERT_TRUE(automl.fitted());
  const resume::SearchCheckpoint ckpt = automl.checkpoint_to();
  EXPECT_TRUE(ckpt.model_blob.empty());
  EXPECT_EQ(ckpt.history.size(), 6u);
}

// ---------------------------------------------------------------------------
// Post-fit warm start: checkpoint_to() after a short fit, resume with a
// larger iteration budget — equivalent to having run the long fit once.
// ---------------------------------------------------------------------------

TEST(ResumeWarmStart, ShortFitPlusResumeEqualsLongFit) {
  const Dataset data = resume_tiny_binary(51);
  const AutoMLOptions long_options = resume_options(13, 12);

  AutoML reference;
  add_resume_lineup(reference);
  reference.fit(data, long_options);
  ASSERT_EQ(reference.history().size(), 12u);

  AutoML short_fit;
  add_resume_lineup(short_fit);
  short_fit.fit(data, resume_options(13, 6));
  ASSERT_EQ(short_fit.history().size(), 6u);
  const resume::SearchCheckpoint ckpt = short_fit.checkpoint_to();

  AutoML resumed;
  add_resume_lineup(resumed);
  resumed.resume_from(data, long_options, ckpt);
  expect_resumed_equals_reference(resumed, reference, "warm start 6 -> 12");
}

// ---------------------------------------------------------------------------
// Durability of the tmp+rename writer
// ---------------------------------------------------------------------------

TEST(ResumeDurability, LeftoverTmpNextToAValidCheckpointIsIgnored) {
  const Dataset data = resume_tiny_binary(61);
  const std::string path = tmp_path("durability_valid.ckpt");
  AutoML automl;
  run_killed_fit(automl, data, resume_options(61, 10), path, 4);

  // A stale half-written tmp beside a VALID final file (a crash during a
  // LATER checkpoint write, before its rename) must not affect loading.
  {
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    tmp << "flaml-checkpoint v4 99 0\ntruncated mid-wri";
  }
  const resume::SearchCheckpoint loaded = resume::SearchCheckpoint::load(path);
  EXPECT_EQ(loaded.iteration, 4u);
  std::remove((path + ".tmp").c_str());
}

TEST(ResumeDurability, HalfWrittenTmpWithoutAFinalFileIsRefused) {
  const std::string path = tmp_path("durability_orphan.ckpt");
  std::remove(path.c_str());
  {
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    tmp << "flaml-checkpoint v4 99 0\ntruncated mid-wri";
  }
  // The orphaned tmp may hold anything — loading it in place of the missing
  // final file would resurrect a torn checkpoint. The reader must refuse
  // with a message naming the real failure, not a generic "cannot open".
  try {
    resume::SearchCheckpoint::load(path);
    FAIL() << "orphaned tmp was loaded (or missing file not reported)";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("interrupted"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(".tmp"), std::string::npos);
  }
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace flaml
