// The line-JSON transport of both daemons: one request line in, one reply
// line out, over stdio or AF_UNIX. `handler` is a service's handle_line and
// `stop` its shutdown_requested. Each byte is scanned once; blank lines are
// ignored and nothing is read once `stop` is true. A line over kMaxLineBytes
// gets one "line_too_long" error reply and ends its connection (in stdio
// mode, the stream). Each socket connection runs on its own thread, joined
// when it ends; replies use MSG_NOSIGNAL, so a hung-up client costs only its
// own connection. Connection kMaxConnections + 1 gets one "overloaded" error
// reply and is closed. On `stop`, idle connections close at once and replies
// still being computed get kDrainSeconds. Sockets are POSIX-only.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>

namespace flaml::line_server {

using Handler = std::function<std::string(const std::string& line)>;
using Stop = std::function<bool()>;

// ~75x the largest request bench/e2e sends (a 2048-row predict, ~217 KB).
inline constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;
inline constexpr std::size_t kMaxConnections = 64;  // also the listen backlog
inline constexpr int kDrainSeconds = 5;  // under the 10 s bench/e2e allows a daemon to exit

// Serves until EOF, `stop` or an over-long line; answers a final unterminated line.
void serve_lines(std::istream& in, std::ostream& out, const Handler& handler, const Stop& stop);

// Serves `path` until `stop`; returns the exit code. Drops a line cut off by a hang-up.
int serve_unix_socket(const std::string& path, const Handler& handler, const Stop& stop);

// Client: sends one request line to `path`, returns the reply line.
std::string round_trip(const std::string& path, const std::string& line);

}  // namespace flaml::line_server
