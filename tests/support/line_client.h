// Test helpers for the line-JSON transport (common/line_server.h): a socket
// server on a background thread, and a raw AF_UNIX client that can do what
// line_server::round_trip cannot — pipeline, split a line across writes,
// stay idle, hang up mid-line. Every read has a timeout, so a transport that
// wedges fails the test instead of hanging it.
#pragma once

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "common/line_server.h"

namespace flaml::testing {

inline std::chrono::steady_clock::time_point deadline_after(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

inline std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "flaml_ls_" + std::to_string(::getpid()) +
         "_" + std::to_string(counter++) + ".sock";
}

class LineClient {
 public:
  explicit LineClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const int err = errno;
      close();
      throw std::runtime_error("connect: " + std::string(std::strerror(err)));
    }
  }
  ~LineClient() { close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  // Sends every byte; false once the server has closed the connection.
  bool send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  // The next reply line (without '\n'); nullopt on EOF or after `timeout_s`.
  std::optional<std::string> read_line(double timeout_s = 10.0) {
    const auto deadline = deadline_after(timeout_s);
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      if (!fill(deadline)) return std::nullopt;
    }
  }

  // True when the server closes the connection within `timeout_s` with no
  // further reply bytes.
  bool closed_by_server(double timeout_s = 10.0) {
    const auto deadline = deadline_after(timeout_s);
    while (buffer_.empty()) {
      if (!fill(deadline)) return eof_;
    }
    return false;
  }

  std::string round_trip(const std::string& line) {
    send(line + "\n");
    return read_line().value_or("<no reply>");
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }
  // Both directions: also wakes a send() blocked on a full socket buffer.
  void hang_up() { ::shutdown(fd_, SHUT_RDWR); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  // Appends what arrives before `deadline`; false on EOF, error or timeout.
  bool fill(std::chrono::steady_clock::time_point deadline) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pending{fd_, POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pending, 1, static_cast<int>(left.count())) <= 0) {
      return false;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      // A server that closes with our bytes still unread resets the stream.
      eof_ = n == 0 || errno == ECONNRESET;
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
  bool eof_ = false;
};

// line_server::serve_unix_socket on a background thread. It stops when
// `stop` (if given) turns true or on destruction, and joins either way.
class ServerThread {
 public:
  explicit ServerThread(line_server::Handler handler,
                        line_server::Stop stop = nullptr)
      : path_(unique_socket_path()),
        handler_(std::move(handler)),
        stop_(std::move(stop)),
        thread_([this] {
          line_server::serve_unix_socket(path_, handler_, [this] {
            return stopping_.load() || (stop_ && stop_());
          });
          exited_.store(true);
        }) {
    // Ready once a connect succeeds (a failed one throws).
    for (int attempt = 0;; ++attempt) {
      try {
        LineClient probe(path_);
        return;
      } catch (const std::runtime_error&) {
        if (attempt > 5000) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  ~ServerThread() { stop(); }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  const std::string& path() const { return path_; }
  bool exited() const { return exited_.load(); }

  // Waits for serve_unix_socket to return; false after `timeout_s`.
  bool wait_exit(double timeout_s) {
    const auto deadline = deadline_after(timeout_s);
    while (!exited()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    thread_.join();
    return true;
  }

  void stop() {
    stopping_.store(true);
    try {
      LineClient wake(path_);  // ends the accept loop's poll at once
    } catch (const std::runtime_error&) {
    }
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::string path_;
  line_server::Handler handler_;
  line_server::Stop stop_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> exited_{false};
  std::thread thread_;
};

}  // namespace flaml::testing
