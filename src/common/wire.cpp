#include "common/wire.h"

#include <cmath>

#include "common/error.h"

namespace flaml::wire {

const JsonValue* opt(const JsonValue& request, const std::string& key) {
  FLAML_REQUIRE(request.is_object(), "request must be a JSON object");
  return request.find(key);
}

std::string opt_string(const JsonValue& request, const std::string& key,
                       const std::string& fallback) {
  const JsonValue* v = opt(request, key);
  if (v == nullptr) return fallback;
  FLAML_REQUIRE(v->is_string(), "field '" << key << "' must be a string");
  return v->str;
}

bool opt_bool(const JsonValue& request, const std::string& key, bool fallback) {
  const JsonValue* v = opt(request, key);
  if (v == nullptr) return fallback;
  FLAML_REQUIRE(v->is_bool(), "field '" << key << "' must be a boolean");
  return v->boolean;
}

double opt_number(const JsonValue& request, const std::string& key,
                  double fallback) {
  const JsonValue* v = opt(request, key);
  if (v == nullptr) return fallback;
  FLAML_REQUIRE(v->is_number(), "field '" << key << "' must be a number");
  return v->number;
}

namespace {

// The shared core: `n` must be finite, exactly integral and in [lo, hi].
// The comparison against `hi` happens in double space with the bound
// rounded DOWN to a representable double <= hi, so a value like 2^53 + 8
// (representable) can never slip past a bound of 2^53 - 1 (not
// representable) through rounding.
std::uint64_t decode_integer(double n, const std::string& what,
                             std::uint64_t lo, std::uint64_t hi) {
  FLAML_REQUIRE(std::isfinite(n), what << " must be a finite number");
  FLAML_REQUIRE(n == std::floor(n),
                what << " must be an integer, got " << n);
  FLAML_REQUIRE(n >= 0.0 && n >= static_cast<double>(lo),
                what << " must be >= " << lo << ", got " << n);
  // hi <= 2^53 is always exactly representable (kMaxSafeInteger == 2^53 and
  // every integer below it converts exactly).
  FLAML_REQUIRE(n <= static_cast<double>(hi),
                what << " must be <= " << hi << ", got " << n);
  return static_cast<std::uint64_t>(n);
}

}  // namespace

std::size_t opt_size(const JsonValue& request, const std::string& key,
                     std::size_t fallback, std::uint64_t max) {
  const JsonValue* v = opt(request, key);
  if (v == nullptr) return fallback;
  FLAML_REQUIRE(v->is_number(), "field '" << key << "' must be a number");
  return static_cast<std::size_t>(
      decode_integer(v->number, "field '" + key + "'", 0, max));
}

std::int64_t opt_int(const JsonValue& request, const std::string& key,
                     std::int64_t fallback, std::int64_t lo, std::int64_t hi) {
  constexpr auto kSafe = static_cast<std::int64_t>(kMaxSafeInteger);
  FLAML_CHECK(-kSafe <= lo && lo <= hi && hi <= kSafe);
  const JsonValue* v = opt(request, key);
  if (v == nullptr) return fallback;
  FLAML_REQUIRE(v->is_number(), "field '" << key << "' must be a number");
  const double n = v->number;
  FLAML_REQUIRE(std::isfinite(n) && n == std::floor(n) &&
                    n >= static_cast<double>(lo) && n <= static_cast<double>(hi),
                "field '" << key << "' must be an integer in [" << lo << ", "
                          << hi << "], got " << n);
  return static_cast<std::int64_t>(n);
}

std::uint64_t req_id(const JsonValue& request, const std::string& key,
                     std::uint64_t max) {
  const JsonValue* v = opt(request, key);
  FLAML_REQUIRE(v != nullptr && v->is_number(),
                "request needs a numeric \"" << key << "\"");
  return decode_integer(v->number, "field '" + key + "'", 1, max);
}

std::uint64_t strict_integer(const JsonValue& value, const std::string& what,
                             std::uint64_t max) {
  FLAML_REQUIRE(value.is_number(), what << " must be a number");
  return decode_integer(value.number, what, 0, max);
}

JsonValue ok_response() {
  JsonValue out = JsonValue::make_object();
  out.set("ok", JsonValue::make_bool(true));
  return out;
}

JsonValue error_response(const std::string& message) {
  JsonValue out = JsonValue::make_object();
  out.set("ok", JsonValue::make_bool(false));
  out.set("error", JsonValue::make_string(message));
  return out;
}

}  // namespace flaml::wire
