#include "resume/serial_util.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace flaml::resume {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

bool is_integral_in(const JsonValue& v, double lo, double hi) {
  return v.is_number() && std::isfinite(v.number) &&
         v.number == std::floor(v.number) && v.number >= lo && v.number <= hi;
}

}  // namespace

JsonValue json_u64(std::uint64_t v) {
  char buf[19];
  buf[0] = '0';
  buf[1] = 'x';
  for (int i = 0; i < 16; ++i) {
    buf[2 + i] = kHexDigits[(v >> (60 - 4 * i)) & 0xF];
  }
  return JsonValue::make_string(std::string(buf, 18));
}

JsonValue json_double(double v) {
  if (std::isfinite(v)) return JsonValue::make_number(v);
  if (std::isnan(v)) return JsonValue::make_string("nan");
  return JsonValue::make_string(v > 0 ? "inf" : "-inf");
}

JsonValue json_size(std::size_t v) {
  return JsonValue::make_number(static_cast<double>(v));
}

JsonValue json_rng(const Rng& rng) {
  const Rng::State state = rng.snapshot();
  JsonValue out = JsonValue::make_object();
  JsonValue& words = out.set("s", JsonValue::make_array());
  for (std::uint64_t w : state.s) words.push(json_u64(w));
  out.set("has_cached_normal", JsonValue::make_bool(state.has_cached_normal));
  out.set("cached_normal", json_double(state.cached_normal));
  return out;
}

JsonValue json_config(const ConfigMap& config) {
  JsonValue out = JsonValue::make_object();
  for (const auto& [name, value] : config) out.set(name, json_double(value));
  return out;
}

const JsonValue& req_field(const JsonValue& obj, const char* key) {
  FLAML_PARSE_REQUIRE(obj.is_object(), "expected an object holding '" << key << "'");
  const JsonValue* field = obj.find(key);
  FLAML_PARSE_REQUIRE(field != nullptr, "missing field '" << key << "'");
  return *field;
}

bool req_bool(const JsonValue& obj, const char* key) {
  const JsonValue& v = req_field(obj, key);
  FLAML_PARSE_REQUIRE(v.is_bool(), "field '" << key << "' must be a bool");
  return v.boolean;
}

const std::string& req_string(const JsonValue& obj, const char* key) {
  const JsonValue& v = req_field(obj, key);
  FLAML_PARSE_REQUIRE(v.is_string(), "field '" << key << "' must be a string");
  return v.str;
}

double double_value(const JsonValue& v, const char* what) {
  if (v.is_number()) {
    FLAML_PARSE_REQUIRE(std::isfinite(v.number),
                        "'" << what << "' holds a non-finite number literal");
    return v.number;
  }
  FLAML_PARSE_REQUIRE(v.is_string(), "'" << what << "' must be a number or "
                                            "one of \"inf\"/\"-inf\"/\"nan\"");
  if (v.str == "inf") return std::numeric_limits<double>::infinity();
  if (v.str == "-inf") return -std::numeric_limits<double>::infinity();
  FLAML_PARSE_REQUIRE(v.str == "nan", "'" << what << "' holds unknown "
                                             "double encoding '" << v.str << "'");
  return std::numeric_limits<double>::quiet_NaN();
}

double req_double(const JsonValue& obj, const char* key) {
  return double_value(req_field(obj, key), key);
}

double req_finite(const JsonValue& obj, const char* key) {
  const double v = req_double(obj, key);
  FLAML_PARSE_REQUIRE(std::isfinite(v), "field '" << key << "' must be finite");
  return v;
}

std::uint64_t u64_value(const JsonValue& v, const char* what) {
  FLAML_PARSE_REQUIRE(v.is_string(), "'" << what << "' must be a hex string");
  const std::string& s = v.str;
  FLAML_PARSE_REQUIRE(s.size() == 18 && s[0] == '0' && s[1] == 'x',
                      "'" << what << "' must be an 18-char 0x hex string");
  std::uint64_t out = 0;
  for (std::size_t i = 2; i < 18; ++i) {
    const char c = s[i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      FLAML_PARSE_REQUIRE(false, "'" << what << "' holds a non-hex digit");
    }
    out = (out << 4) | digit;
  }
  return out;
}

std::uint64_t req_u64(const JsonValue& obj, const char* key) {
  return u64_value(req_field(obj, key), key);
}

std::size_t req_size(const JsonValue& obj, const char* key, std::size_t max_value) {
  const JsonValue& v = req_field(obj, key);
  FLAML_PARSE_REQUIRE(is_integral_in(v, 0.0, static_cast<double>(max_value)),
                      "field '" << key << "' must be an integer in [0, "
                                << max_value << "]");
  return static_cast<std::size_t>(v.number);
}

std::int64_t int_value(const JsonValue& v, const char* what, std::int64_t lo,
                       std::int64_t hi) {
  FLAML_PARSE_REQUIRE(
      is_integral_in(v, static_cast<double>(lo), static_cast<double>(hi)),
      "'" << what << "' must be an integer in [" << lo << ", " << hi << "]");
  return static_cast<std::int64_t>(v.number);
}

std::int64_t req_int(const JsonValue& obj, const char* key, std::int64_t lo,
                     std::int64_t hi) {
  return int_value(req_field(obj, key), key, lo, hi);
}

const JsonValue& req_array(const JsonValue& obj, const char* key,
                           std::size_t max_items) {
  const JsonValue& v = req_field(obj, key);
  FLAML_PARSE_REQUIRE(v.is_array(), "field '" << key << "' must be an array");
  FLAML_PARSE_REQUIRE(v.array.size() <= max_items,
                      "field '" << key << "' has " << v.array.size()
                                << " items, cap is " << max_items);
  return v;
}

const JsonValue& req_object(const JsonValue& obj, const char* key) {
  const JsonValue& v = req_field(obj, key);
  FLAML_PARSE_REQUIRE(v.is_object(), "field '" << key << "' must be an object");
  return v;
}

ConfigMap req_config(const JsonValue& obj, const char* key) {
  const JsonValue& v = req_object(obj, key);
  // A config has one entry per search-space dimension; far below 4096.
  FLAML_PARSE_REQUIRE(v.object.size() <= 4096,
                      "field '" << key << "' has an implausible "
                                << v.object.size() << " config entries");
  ConfigMap config;
  for (const auto& [name, value] : v.object) {
    FLAML_PARSE_REQUIRE(!name.empty(), "config parameter with an empty name");
    const auto [it, inserted] = config.emplace(name, double_value(value, key));
    FLAML_PARSE_REQUIRE(inserted, "duplicate config parameter '" << name << "'");
  }
  return config;
}

void restore_rng(Rng& rng, const JsonValue& obj, const char* key) {
  restore_rng_value(rng, req_object(obj, key));
}

void restore_rng_value(Rng& rng, const JsonValue& v) {
  FLAML_PARSE_REQUIRE(v.is_object(), "rng state must be an object");
  const JsonValue& words = req_array(v, "s", 4);
  FLAML_PARSE_REQUIRE(words.array.size() == 4, "rng state needs exactly 4 words");
  Rng::State state;
  for (int i = 0; i < 4; ++i) {
    state.s[i] = u64_value(words.array[static_cast<std::size_t>(i)], "rng state word");
  }
  FLAML_PARSE_REQUIRE(state.s[0] != 0 || state.s[1] != 0 || state.s[2] != 0 ||
                          state.s[3] != 0,
                      "all-zero rng state");
  state.has_cached_normal = req_bool(v, "has_cached_normal");
  state.cached_normal = req_double(v, "cached_normal");
  rng.restore(state);
}

}  // namespace flaml::resume
