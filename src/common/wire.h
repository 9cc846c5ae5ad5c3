// Strict field decoding for the line-JSON wire protocols (the search
// daemon's SearchService and the prediction daemon's PredictService).
//
// JSON numbers are doubles, so a naive static_cast<std::size_t>(v->number)
// silently truncates fractional values ("seed": 1.5 -> 1) and is undefined
// behaviour on out-of-range doubles. Every integer that crosses the wire
// goes through these helpers instead: a value must be a finite number,
// exactly integral, and within [lo, hi] — anything else throws a typed
// InvalidArgument naming the field, which the services turn into an
// {"ok":false,"error":...} response instead of a corrupted request.
//
// The representable-integer ceiling is 2^53: beyond it doubles cannot
// distinguish adjacent integers, so accepting 2^53 + 1 would silently alias
// to 2^53. Values above the ceiling are rejected, never clamped.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.h"

namespace flaml::wire {

// Largest double that still represents every smaller non-negative integer
// exactly (2^53). The strict decoders reject anything above it.
inline constexpr std::uint64_t kMaxSafeInteger = 1ull << 53;

// Object lookup; nullptr when absent. Throws InvalidArgument when `request`
// is not an object.
const JsonValue* opt(const JsonValue& request, const std::string& key);

// Optional typed fields with fallbacks; present-but-mistyped throws.
std::string opt_string(const JsonValue& request, const std::string& key,
                       const std::string& fallback);
bool opt_bool(const JsonValue& request, const std::string& key, bool fallback);
double opt_number(const JsonValue& request, const std::string& key,
                  double fallback);

// Strictly-integral optional field in [0, max]; fractional, negative,
// non-finite and > max values all throw. `max` defaults to the 2^53
// representability ceiling.
std::size_t opt_size(const JsonValue& request, const std::string& key,
                     std::size_t fallback,
                     std::uint64_t max = kMaxSafeInteger);

// Strictly-integral optional signed field in [lo, hi]; fractional,
// non-finite and out-of-range values all throw. The bounds must lie within
// ±2^53 so that the range check itself is exact.
std::int64_t opt_int(const JsonValue& request, const std::string& key,
                     std::int64_t fallback, std::int64_t lo, std::int64_t hi);

// Required strictly-integral field in [1, max] — job/model ids.
std::uint64_t req_id(const JsonValue& request, const std::string& key = "id",
                     std::uint64_t max = kMaxSafeInteger);

// Decode a bare number as a strict integer in [0, max] (array elements).
std::uint64_t strict_integer(const JsonValue& value, const std::string& what,
                             std::uint64_t max = kMaxSafeInteger);

// Canonical one-line response shells shared by every wire service.
JsonValue ok_response();
JsonValue error_response(const std::string& message);

}  // namespace flaml::wire
