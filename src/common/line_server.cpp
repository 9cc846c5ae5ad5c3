#include "common/line_server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <istream>
#include <list>
#include <mutex>
#include <ostream>
#include <thread>

#include "common/error.h"
#include "common/wire.h"

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace flaml::line_server {

namespace {

// Larger reads let a pipelining client pin more buffer in every connection:
// 64 KiB raised the serving benchmark's peak daemon RSS by ~10%.
constexpr std::size_t kChunkBytes = 4096;

// The one framing loop: `read` fills a chunk (0 at EOF), `write` sends one
// reply line (false once the peer is gone). Consumed lines are dropped only
// before the next read, so each byte is scanned once.
template <typename Read, typename Write>
void pump(Read read, Write write, const Handler& handler, const Stop& stop, bool answer_tail) {
  std::string buffer;
  std::size_t start = 0, scanned = 0;  // pending line; bytes searched for '\n'
  char chunk[kChunkBytes];
  while (!stop()) {
    const std::size_t nl = buffer.find('\n', scanned);
    if (std::min(nl, buffer.size()) - start > kMaxLineBytes) {
      write(dump_json_compact(wire::error_response(
          "line_too_long: a request line may hold at most " + std::to_string(kMaxLineBytes) + " bytes")));
      return;
    }
    if (nl != std::string::npos) {
      const std::string line = buffer.substr(start, nl - start);
      start = scanned = nl + 1;
      if (!line.empty() && !write(handler(line))) return;
      continue;
    }
    buffer.erase(0, start);
    scanned = buffer.size();
    start = 0;
    const auto n = read(chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (answer_tail && !buffer.empty()) write(handler(buffer));
      return;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

#ifndef _WIN32
// A socket listening at `path` (`serve`) or connected to it.
int open_socket(const std::string& path, bool serve) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  FLAML_REQUIRE(path.size() < sizeof(addr.sun_path), "socket path too long: '" << path << "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  FLAML_REQUIRE(fd >= 0, "socket(): " << std::strerror(errno));
  const auto* sa = reinterpret_cast<const sockaddr*>(&addr);
  if (serve ? ::bind(fd, sa, sizeof(addr)) == 0 &&
                  ::listen(fd, static_cast<int>(kMaxConnections)) == 0
            : ::connect(fd, sa, sizeof(addr)) == 0) {
    return fd;
  }
  const int err = errno;
  ::close(fd);
  throw InvalidArgument((serve ? "bind('" : "connect('") + path + "'): " + std::strerror(err));
}

// MSG_NOSIGNAL: a hung-up peer is an EPIPE here, not a process-wide SIGPIPE.
bool send_all(int fd, const std::string& bytes, int flags = 0) {
  for (std::size_t sent = 0; sent < bytes.size();) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, flags | MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}
#endif  // _WIN32

}  // namespace

void serve_lines(std::istream& in, std::ostream& out, const Handler& handler, const Stop& stop) {
  // Take only what is buffered (at least one byte): never wait on unsent input.
  const auto read = [source = in.rdbuf()](char* chunk, std::streamsize size) {
    return source->sgetn(chunk, std::clamp<std::streamsize>(source->in_avail(), 1, size));
  };
  const auto write = [&out](const std::string& reply) {
    return static_cast<bool>(out << reply << '\n' << std::flush);
  };
  pump(read, write, handler, stop, /*answer_tail=*/true);
}

#ifndef _WIN32

int serve_unix_socket(const std::string& path, const Handler& handler, const Stop& stop) {
  ::unlink(path.c_str());
  const int listener = open_socket(path, /*serve=*/true);
  std::fprintf(stderr, "listening on %s\n", path.c_str());
  struct Connection {  // fd is -1 once its thread closed it and let go of `mutex`
    int fd;
    std::thread thread;
  };
  std::list<Connection> live;  // stable addresses for the threads
  std::mutex mutex;
  const auto reap = [&] {  // joins finished threads; returns how many remain
    std::lock_guard lock(mutex);
    for (auto it = live.begin(); it != live.end();) {
      if (it->fd < 0) it->thread.join();
      it = it->fd < 0 ? live.erase(it) : std::next(it);
    }
    return live.size();
  };
  const auto shut = [&](int how) {
    std::lock_guard lock(mutex);
    for (const Connection& c : live) {
      if (c.fd >= 0) ::shutdown(c.fd, how);
    }
  };

  while (!stop()) {
    pollfd pending{listener, POLLIN, 0};
    const int ready = ::poll(&pending, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) break;
    reap();
    if (ready <= 0) continue;
    const int fd = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    std::lock_guard lock(mutex);
    if (live.size() >= kMaxConnections) {
      const std::string reply = dump_json_compact(wire::error_response(
          "overloaded: " + std::to_string(live.size()) + " connections are open"));
      send_all(fd, reply + '\n', MSG_DONTWAIT);
      ::close(fd);
      continue;
    }
    Connection& conn = live.emplace_back(Connection{fd, {}});
    conn.thread = std::thread([&, fd, conn = &conn] {
      pump([fd](char* chunk, std::size_t size) { return ::recv(fd, chunk, size, 0); },
           [fd](const std::string& reply) { return send_all(fd, reply + '\n'); }, handler,
           stop, /*answer_tail=*/false);
      std::lock_guard done(mutex);
      ::close(fd);
      conn->fd = -1;
    });
  }
  ::close(listener);
  ::unlink(path.c_str());

  // Idle readers see EOF at once; replies still being computed get
  // kDrainSeconds, then their sockets are cut so a blocked send returns.
  shut(SHUT_RD);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(kDrainSeconds);
  while (reap() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  shut(SHUT_RDWR);
  for (Connection& c : live) c.thread.join();
  return 0;
}

std::string round_trip(const std::string& path, const std::string& line) {
  const int fd = open_socket(path, /*serve=*/false);
  std::string reply;
  char chunk[kChunkBytes];
  for (bool open = send_all(fd, line + '\n'); open;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n > 0) reply.append(chunk, static_cast<std::size_t>(n));
    open = n > 0 && std::memchr(chunk, '\n', static_cast<std::size_t>(n)) == nullptr;
  }
  ::close(fd);
  reply.resize(std::min(reply.size(), reply.find('\n')));
  FLAML_REQUIRE(!reply.empty(), "daemon closed the connection mid-request");
  return reply;
}

#else  // sockets are POSIX-only
int serve_unix_socket(const std::string&, const Handler&, const Stop&) {
  std::fprintf(stderr, "socket mode is POSIX-only; use stdio mode\n");
  return 2;
}
std::string round_trip(const std::string&, const std::string&) {
  throw InvalidArgument("client mode is POSIX-only");
}
#endif  // _WIN32

}  // namespace flaml::line_server
