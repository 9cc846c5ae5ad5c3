#include "resume/checkpoint.h"

#include <cmath>

#include "common/error.h"

namespace flaml::resume {

namespace {

// Caps on what a corrupt file can make us allocate or loop over. All are
// far above anything a real search produces.
constexpr std::size_t kMaxLearners = 4096;
constexpr std::size_t kMaxPending = 65536;
constexpr std::size_t kMaxEnvelopes = 100000;
constexpr std::size_t kMaxEnvelopePoints = 1u << 20;
constexpr std::size_t kMaxHistory = 10000000;
constexpr std::size_t kMaxBlobBytes = 1u << 30;

JsonValue record_to_json(const TrialRecord& r) {
  JsonValue out = JsonValue::make_object();
  out.set("iteration", JsonValue::make_number(r.iteration));
  out.set("finished_at", json_double(r.finished_at));
  out.set("learner", JsonValue::make_string(r.learner));
  out.set("config", json_config(r.config));
  out.set("sample_size", json_size(r.sample_size));
  out.set("error", json_double(r.error));
  out.set("cost", json_double(r.cost));
  out.set("best_error_so_far", json_double(r.best_error_so_far));
  return out;
}

TrialRecord record_from_json(const JsonValue& v) {
  TrialRecord r;
  r.iteration = static_cast<int>(req_int(v, "iteration", 1, 2147483647));
  r.finished_at = req_finite(v, "finished_at");
  FLAML_PARSE_REQUIRE(r.finished_at >= 0.0,
                      "trial record finished_at must be >= 0");
  r.learner = req_string(v, "learner");
  FLAML_PARSE_REQUIRE(!r.learner.empty(), "trial record learner must be non-empty");
  r.config = req_config(v, "config");
  r.sample_size = req_size(v, "sample_size", kMaxHistory * 1000);
  FLAML_PARSE_REQUIRE(r.sample_size >= 1, "trial record sample_size must be >= 1");
  // error is +inf for killed/failed trials; never NaN.
  r.error = req_double(v, "error");
  FLAML_PARSE_REQUIRE(!std::isnan(r.error), "trial record error must not be NaN");
  r.cost = req_finite(v, "cost");
  FLAML_PARSE_REQUIRE(r.cost >= 0.0, "trial record cost must be >= 0");
  r.best_error_so_far = req_double(v, "best_error_so_far");
  FLAML_PARSE_REQUIRE(!std::isnan(r.best_error_so_far),
                      "trial record best_error_so_far must not be NaN");
  return r;
}

JsonValue parse_payload(const std::string& payload) {
  try {
    return parse_json(payload);
  } catch (const std::exception& e) {
    // Unreachable in practice (the checksum already vouches for the bytes)
    // but keeps the error typed if the writer itself produced bad JSON.
    FLAML_PARSE_REQUIRE(false, "checkpoint payload is not valid JSON: " << e.what());
  }
}

}  // namespace

std::string encode_blob(const std::string& bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

std::string decode_blob(const std::string& hex) {
  FLAML_PARSE_REQUIRE(hex.size() % 2 == 0, "blob hex has odd length");
  FLAML_PARSE_REQUIRE(hex.size() / 2 <= kMaxBlobBytes, "blob too large");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    FLAML_PARSE_REQUIRE(false, "blob holds a non-hex character");
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

JsonValue SearchCheckpoint::to_json() const {
  JsonValue out = JsonValue::make_object();
  out.set("version", JsonValue::make_number(version));
  out.set("task", JsonValue::make_string(task));
  out.set("metric", JsonValue::make_string(metric));
  out.set("seed", json_u64(seed));
  out.set("resampling", JsonValue::make_string(resampling));
  out.set("iteration", json_size(static_cast<std::size_t>(iteration)));
  out.set("calibrated", JsonValue::make_bool(calibrated));
  out.set("elapsed_seconds", json_double(elapsed_seconds));
  out.set("rng", rng);
  out.set("best_learner", JsonValue::make_string(best_learner));
  out.set("best_error", json_double(best_error));
  out.set("best_sample_size", json_size(best_sample_size));
  out.set("best_config", json_config(best_config));
  JsonValue& larr = out.set("learners", JsonValue::make_array());
  for (const LearnerCheckpoint& l : learners) {
    JsonValue entry = JsonValue::make_object();
    entry.set("name", JsonValue::make_string(l.name));
    entry.set("eci", l.eci);
    entry.set("tuner", l.tuner);
    entry.set("sample_size", json_size(l.sample_size));
    entry.set("best_error", json_double(l.best_error));
    entry.set("best_config", json_config(l.best_config));
    entry.set("n_proposed", json_u64(l.n_proposed));
    larr.push(std::move(entry));
  }
  JsonValue& parr = out.set("pending", JsonValue::make_array());
  for (const PendingTrial& p : pending) {
    JsonValue entry = JsonValue::make_object();
    entry.set("learner", JsonValue::make_string(p.learner));
    entry.set("trial_index", json_u64(p.trial_index));
    entry.set("seed_salt", json_u64(p.seed_salt));
    entry.set("grow_sample", JsonValue::make_bool(p.grow_sample));
    entry.set("sample_size", json_size(p.sample_size));
    entry.set("config", json_config(p.config));
    entry.set("racing_enabled", JsonValue::make_bool(p.racing_enabled));
    JsonValue& earr = entry.set("envelope", JsonValue::make_array());
    for (double v : p.envelope) earr.push(json_double(v));
    parr.push(std::move(entry));
  }
  JsonValue& harr = out.set("history", JsonValue::make_array());
  for (const TrialRecord& r : history) harr.push(record_to_json(r));
  out.set("runner", runner);
  out.set("metrics", metrics);
  if (racing.is_object()) {
    out.set("racing", racing);
  } else {
    // Unset (e.g. a hand-built checkpoint): the empty-monitor shape, so
    // every v3 file carries the field and from_json can require it.
    JsonValue empty = JsonValue::make_object();
    empty.set("envelopes", JsonValue::make_array());
    out.set("racing", std::move(empty));
  }
  out.set("model", JsonValue::make_string(encode_blob(model_blob)));
  return out;
}

SearchCheckpoint SearchCheckpoint::from_json(const JsonValue& payload) {
  SearchCheckpoint ckpt;
  ckpt.version = static_cast<int>(req_int(payload, "version", 1, 1000000));
  FLAML_PARSE_REQUIRE(ckpt.version == kCheckpointVersion,
                      "checkpoint version " << ckpt.version
                                            << " is not the supported version "
                                            << kCheckpointVersion);
  ckpt.task = req_string(payload, "task");
  ckpt.metric = req_string(payload, "metric");
  FLAML_PARSE_REQUIRE(!ckpt.task.empty() && !ckpt.metric.empty(),
                      "checkpoint task/metric must be non-empty");
  ckpt.seed = req_u64(payload, "seed");
  ckpt.resampling = req_string(payload, "resampling");
  FLAML_PARSE_REQUIRE(ckpt.resampling == "cv" || ckpt.resampling == "holdout",
                      "checkpoint resampling must be 'cv' or 'holdout'");
  ckpt.iteration =
      static_cast<std::uint64_t>(req_size(payload, "iteration", kMaxHistory));
  ckpt.calibrated = req_bool(payload, "calibrated");
  // The first committed trial calibrates every cold-start ECI.
  FLAML_PARSE_REQUIRE(ckpt.calibrated == (ckpt.iteration > 0),
                      "checkpoint calibrated flag contradicts its iteration count");
  ckpt.elapsed_seconds = req_finite(payload, "elapsed_seconds");
  FLAML_PARSE_REQUIRE(ckpt.elapsed_seconds >= 0.0,
                      "checkpoint elapsed_seconds must be >= 0");
  ckpt.rng = req_object(payload, "rng");
  {
    // Validate the stream eagerly: a bad RNG state must fail the load, not
    // the first draw after resume.
    Rng probe;
    restore_rng_value(probe, ckpt.rng);
  }
  ckpt.best_learner = req_string(payload, "best_learner");
  ckpt.best_error = req_double(payload, "best_error");
  ckpt.best_sample_size = req_size(payload, "best_sample_size", kMaxHistory * 1000);
  ckpt.best_config = req_config(payload, "best_config");
  if (ckpt.best_learner.empty()) {
    FLAML_PARSE_REQUIRE(ckpt.best_error ==
                            std::numeric_limits<double>::infinity(),
                        "checkpoint without a best learner must carry +inf "
                        "best_error");
    FLAML_PARSE_REQUIRE(ckpt.best_config.empty(),
                        "checkpoint without a best learner must carry an "
                        "empty best_config");
  } else {
    FLAML_PARSE_REQUIRE(std::isfinite(ckpt.best_error),
                        "checkpoint best_error must be finite when a best "
                        "learner exists");
  }

  const JsonValue& larr = req_array(payload, "learners", kMaxLearners);
  FLAML_PARSE_REQUIRE(!larr.array.empty(), "checkpoint has no learners");
  bool best_learner_known = ckpt.best_learner.empty();
  for (const JsonValue& entry : larr.array) {
    LearnerCheckpoint l;
    l.name = req_string(entry, "name");
    FLAML_PARSE_REQUIRE(!l.name.empty(), "checkpoint learner name must be non-empty");
    for (const LearnerCheckpoint& prev : ckpt.learners) {
      FLAML_PARSE_REQUIRE(prev.name != l.name,
                          "duplicate checkpoint learner '" << l.name << "'");
    }
    if (l.name == ckpt.best_learner) best_learner_known = true;
    l.eci = req_object(entry, "eci");
    l.tuner = req_object(entry, "tuner");
    l.sample_size = req_size(entry, "sample_size", kMaxHistory * 1000);
    FLAML_PARSE_REQUIRE(l.sample_size >= 2,
                        "checkpoint learner sample_size must be >= 2");
    l.best_error = req_double(entry, "best_error");
    FLAML_PARSE_REQUIRE(!std::isnan(l.best_error),
                        "checkpoint learner best_error must not be NaN");
    l.best_config = req_config(entry, "best_config");
    l.n_proposed = req_u64(entry, "n_proposed");
    ckpt.learners.push_back(std::move(l));
  }
  FLAML_PARSE_REQUIRE(best_learner_known,
                      "checkpoint best_learner '" << ckpt.best_learner
                                                  << "' is not in its lineup");

  const JsonValue& parr = req_array(payload, "pending", kMaxPending);
  for (const JsonValue& entry : parr.array) {
    PendingTrial p;
    p.learner = req_string(entry, "learner");
    bool known = false;
    for (const LearnerCheckpoint& l : ckpt.learners) known |= l.name == p.learner;
    FLAML_PARSE_REQUIRE(known, "pending trial learner '" << p.learner
                                                         << "' is not in the lineup");
    for (const PendingTrial& prev : ckpt.pending) {
      // The controller keeps at most one outstanding trial per learner.
      FLAML_PARSE_REQUIRE(prev.learner != p.learner,
                          "two pending trials for learner '" << p.learner << "'");
    }
    p.trial_index = req_u64(entry, "trial_index");
    FLAML_PARSE_REQUIRE(p.trial_index >= 1, "pending trial_index must be >= 1");
    p.seed_salt = req_u64(entry, "seed_salt");
    FLAML_PARSE_REQUIRE(p.seed_salt != 0,
                        "pending seed_salt 0 would fall into the runner-counter "
                        "seed domain");
    p.grow_sample = req_bool(entry, "grow_sample");
    p.sample_size = req_size(entry, "sample_size", kMaxHistory * 1000);
    FLAML_PARSE_REQUIRE(p.sample_size >= 2, "pending sample_size must be >= 2");
    p.config = req_config(entry, "config");
    p.racing_enabled = req_bool(entry, "racing_enabled");
    const JsonValue& earr = req_array(entry, "envelope", kMaxEnvelopePoints);
    p.envelope.reserve(earr.array.size());
    for (const JsonValue& v : earr.array) {
      const double loss = double_value(v, "pending envelope point");
      FLAML_PARSE_REQUIRE(std::isfinite(loss),
                          "pending envelope points must be finite");
      FLAML_PARSE_REQUIRE(p.envelope.empty() || loss <= p.envelope.back(),
                          "pending envelope must be non-increasing "
                          "(a running minimum)");
      p.envelope.push_back(loss);
    }
    FLAML_PARSE_REQUIRE(p.racing_enabled || p.envelope.empty(),
                        "pending trial carries an envelope but racing is "
                        "disabled for it");
    ckpt.pending.push_back(std::move(p));
  }

  const JsonValue& harr = req_array(payload, "history", kMaxHistory);
  FLAML_PARSE_REQUIRE(harr.array.size() == ckpt.iteration,
                      "checkpoint history length " << harr.array.size()
                                                   << " != iteration count "
                                                   << ckpt.iteration);
  ckpt.history.reserve(harr.array.size());
  for (const JsonValue& entry : harr.array) {
    TrialRecord r = record_from_json(entry);
    FLAML_PARSE_REQUIRE(static_cast<std::size_t>(r.iteration) ==
                            ckpt.history.size() + 1,
                        "checkpoint history iterations must be 1..n in order");
    ckpt.history.push_back(std::move(r));
  }

  ckpt.runner = req_object(payload, "runner");
  ckpt.metrics = req_object(payload, "metrics");
  // Structural check only (bounded, well-typed); the monotonicity/finiteness
  // semantics live in RacingMonitor::from_json (flaml_automl — this library
  // cannot link it).
  ckpt.racing = req_object(payload, "racing");
  const JsonValue& renv = req_array(ckpt.racing, "envelopes", kMaxEnvelopes);
  for (const JsonValue& entry : renv.array) {
    FLAML_PARSE_REQUIRE(entry.is_object(),
                        "racing envelope entries must be objects");
    req_array(entry, "curve", kMaxEnvelopePoints);
  }
  ckpt.model_blob = decode_blob(req_string(payload, "model"));
  return ckpt;
}

std::string serialize_checkpoint(const JsonValue& payload) {
  return seal(kCheckpointFormat, dump_json_compact(payload));
}

JsonValue parse_checkpoint(const std::string& text) {
  return parse_payload(unseal(kCheckpointFormat, text));
}

void write_checkpoint_file(const std::string& path, const JsonValue& payload) {
  write_file_durable(path, serialize_checkpoint(payload));
}

JsonValue read_checkpoint_file(const std::string& path) {
  return parse_payload(read_sealed_file(path, kCheckpointFormat));
}

void SearchCheckpoint::save(const std::string& path) const {
  write_checkpoint_file(path, to_json());
}

SearchCheckpoint SearchCheckpoint::load(const std::string& path) {
  return from_json(read_checkpoint_file(path));
}

}  // namespace flaml::resume
