// Command-line flag lookup shared by the tools: `--key=value` yields value,
// a bare `--key` yields "1", and an absent key yields `fallback`.
#pragma once

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

}  // namespace flaml
