#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "e2e.h"

extern char** environ;

namespace e2e {

using flaml::JsonValue;

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

void Metrics::merge(const Metrics& other) {
  for (const auto& [name, vu] : other.items_) set(name, vu.first, vu.second);
}

double Metrics::get(const std::string& name) const {
  for (const auto& [n, vu] : items_) {
    if (n == name) return vu.first;
  }
  return 0.0;
}

JsonValue Metrics::to_json() const {
  JsonValue out = JsonValue::make_object();
  for (const auto& [name, vu] : items_) {
    JsonValue m = JsonValue::make_object();
    m.set("value", JsonValue::make_number(vu.first));
    m.set("unit", JsonValue::make_string(vu.second));
    out.set(name, std::move(m));
  }
  return out;
}

Metrics Metrics::from_json(const JsonValue& value) {
  Metrics out;
  for (const auto& [name, m] : value.object) {
    out.set(name, m.at("value").number, m.at("unit").str);
  }
  return out;
}

JsonValue spans_to_json(const std::vector<Span>& spans, double origin) {
  JsonValue out = JsonValue::make_array();
  for (const Span& s : spans) {
    JsonValue v = JsonValue::make_object();
    v.set("name", JsonValue::make_string(s.name));
    v.set("start", JsonValue::make_number(s.start - origin));
    v.set("end", JsonValue::make_number(s.end - origin));
    v.set("parent", JsonValue::make_string(s.parent));
    v.set("id", JsonValue::make_number(static_cast<double>(s.id)));
    out.push(std::move(v));
  }
  return out;
}

std::vector<Span> spans_from_json(const JsonValue& value) {
  std::vector<Span> out;
  for (const JsonValue& v : value.array) {
    out.push_back({v.at("name").str, v.at("start").number, v.at("end").number,
                   v.at("parent").str,
                   static_cast<std::uint64_t>(v.at("id").number)});
  }
  return out;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return flaml::Rng(seed * 0x9e3779b97f4a7c15ULL + salt).next();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string self_exe() {
  return std::filesystem::read_symlink("/proc/self/exe").string();
}

pid_t spawn_process(const std::vector<std::string>& argv, const std::string& log) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("posix_spawn " + argv[0] + ": " + std::strerror(rc));
  }
  return pid;
}

int wait_process(pid_t pid, double timeout_s, struct rusage* usage) {
  if (pid <= 0) return -1;
  struct rusage local {};
  struct rusage* ru = usage != nullptr ? usage : &local;
  const double deadline = now_s() + timeout_s;
  int status = 0;
  while (true) {
    const pid_t got = wait4(pid, &status, WNOHANG, ru);
    if (got == pid) break;
    if (got < 0 && errno != EINTR) return -1;
    if (now_s() > deadline) {
      kill(pid, SIGKILL);
      wait4(pid, &status, 0, ru);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

LineConn::LineConn(const std::string& path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    close();
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    close();
    throw std::runtime_error("connect " + path + ": " + std::strerror(err));
  }
}

LineConn::~LineConn() { close(); }

LineConn::LineConn(LineConn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      start_(other.start_) {}

void LineConn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void LineConn::send(std::string_view bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t w = ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) throw std::runtime_error(std::string("write: ") + std::strerror(errno));
    written += static_cast<std::size_t>(w);
  }
}

std::string LineConn::read_line() {
  std::size_t scanned = start_;
  while (true) {
    const std::size_t nl = buffer_.find('\n', scanned);
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(start_, nl - start_);
      start_ = nl + 1;
      if (start_ == buffer_.size()) {
        buffer_.clear();
        start_ = 0;
      }
      return line;
    }
    scanned = buffer_.size();
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return {};
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string LineConn::round_trip(std::string_view line) {
  std::string framed(line);
  framed.push_back('\n');
  send(framed);
  return read_line();
}

namespace {

// Position just past `"key":` in a compact JSON line, or npos.
std::size_t after_key(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle.append(key);
  needle += "\":";
  const std::size_t at = line.find(needle);
  return at == std::string_view::npos ? at : at + needle.size();
}

}  // namespace

bool scan_reply(std::string_view line, ReplyView& out) {
  out.values.clear();
  std::size_t at = after_key(line, "ok");
  out.ok = at != std::string_view::npos && line.substr(at, 4) == "true";
  if (!out.ok) return false;
  at = after_key(line, "generation");
  if (at == std::string_view::npos) return false;
  const char* end = line.data() + line.size();
  if (std::from_chars(line.data() + at, end, out.generation).ec != std::errc()) return false;
  at = after_key(line, "values");
  if (at == std::string_view::npos || line[at] != '[') return false;
  const char* p = line.data() + at + 1;
  while (p < end && *p != ']') {
    double v = 0.0;
    auto [next, ec] = std::from_chars(p, end, v);
    if (ec != std::errc()) return false;
    out.values.push_back(v);
    p = next;
    if (p < end && *p == ',') ++p;
  }
  return p < end;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace e2e
