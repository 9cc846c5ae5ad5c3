// Strict JSON (de)serialization helpers shared by every component that
// participates in search checkpointing (src/resume/checkpoint.h, EciState,
// Flow2, TrialRunner, MetricsRegistry).
//
// Two rules make checkpoints crash-safe AND resume bit-exact:
//   * values round-trip exactly: doubles use the writer's 17-significant-
//     digit form (with "inf"/"-inf"/"nan" spelled as strings, since JSON
//     numbers must be finite), and 64-bit integers are hex strings because
//     a JSON number is a double and would silently drop bits past 2^53 —
//     RNG state words and seed salts need all 64;
//   * every read is validated BEFORE it is used: missing keys, wrong types,
//     non-finite counts and out-of-range values all throw SerializationError
//     (common/error.h). A truncated or bit-flipped checkpoint can only ever
//     produce that typed error — never UB, never an unbounded allocation.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/json.h"
#include "common/rng.h"

namespace flaml::resume {

// A Config is std::map<std::string, double> (tuners/config_space.h); spelled
// out here so the serialization toolkit does not pull in the tuner headers.
using ConfigMap = std::map<std::string, double>;

// --- encoding ---
JsonValue json_u64(std::uint64_t v);     // hex string, e.g. "0xcbf29ce484222325"
JsonValue json_double(double v);         // finite -> number; inf/nan -> string
JsonValue json_size(std::size_t v);      // plain number (counts stay < 2^53)
JsonValue json_rng(const Rng& rng);      // {"s": [u64 x4], "normal": ...}
JsonValue json_config(const ConfigMap& config);

// --- strict decoding (all throw SerializationError on any mismatch) ---
const JsonValue& req_field(const JsonValue& obj, const char* key);
bool req_bool(const JsonValue& obj, const char* key);
const std::string& req_string(const JsonValue& obj, const char* key);
// Exact inverse of json_double: accepts a number or "inf"/"-inf"/"nan".
double req_double(const JsonValue& obj, const char* key);
// Decode a bare json_double value (used for array elements).
double double_value(const JsonValue& v, const char* what);
// Like req_double but rejects non-finite values.
double req_finite(const JsonValue& obj, const char* key);
std::uint64_t req_u64(const JsonValue& obj, const char* key);
// Decode a bare json_u64 value (used for array elements).
std::uint64_t u64_value(const JsonValue& v, const char* what);
// Non-negative integral count, capped: `max_value` bounds what a corrupt
// file can make the caller allocate or loop over.
std::size_t req_size(const JsonValue& obj, const char* key, std::size_t max_value);
// Integral value within [lo, hi].
std::int64_t req_int(const JsonValue& obj, const char* key, std::int64_t lo,
                     std::int64_t hi);
// Decode a bare integral value within [lo, hi] (used for array elements).
std::int64_t int_value(const JsonValue& v, const char* what, std::int64_t lo,
                       std::int64_t hi);
const JsonValue& req_array(const JsonValue& obj, const char* key,
                           std::size_t max_items);
const JsonValue& req_object(const JsonValue& obj, const char* key);
ConfigMap req_config(const JsonValue& obj, const char* key);
// Restores `rng` from the object written by json_rng (all-zero state rejected).
void restore_rng(Rng& rng, const JsonValue& obj, const char* key);
// Same, on a bare json_rng value.
void restore_rng_value(Rng& rng, const JsonValue& v);

}  // namespace flaml::resume
