// Command-line flag lookup shared by the tools: `--key=value` yields value,
// a bare `--key` yields "1", and an absent key yields `fallback`.
#pragma once

#include <charconv>
#include <optional>
#include <string>

namespace flaml {

inline std::string flag(int argc, char** argv, const std::string& key,
                        const std::string& fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (arg == "--" + key) return "1";
  }
  return fallback;
}

// Strict integer flag: the whole value must be a base-10 integer in
// [lo, hi]. Anything else (a fraction, trailing junk, a value out of range
// such as a negative count) yields nullopt instead of wrapping or
// truncating.
inline std::optional<long long> int_flag(int argc, char** argv,
                                         const std::string& key,
                                         long long fallback, long long lo,
                                         long long hi) {
  const std::string text = flag(argc, argv, key, std::to_string(fallback));
  const char* end = text.data() + text.size();
  long long value = 0;
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

}  // namespace flaml
