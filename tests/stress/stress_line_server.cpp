// Resource and overload stress for the shared line-JSON transport
// (src/common/line_server.h), meant to run under TSan (label `stress`):
// connection churn must leave thread, fd and address-space counts flat
// (finished connection threads are joined), connection kMaxConnections + 1
// is refused with a typed reply, and a client that never closes cannot hold
// up shutdown past kDrainSeconds. No test opens more than
// kMaxConnections + 1 client sockets at once.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/line_server.h"
#include "support/line_client.h"

namespace flaml::testing {
namespace {

using line_server::kDrainSeconds;
using line_server::kMaxConnections;
using Clock = std::chrono::steady_clock;

std::size_t entries(const char* dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(dir)) ++n;
  return n;
}

std::size_t vm_size_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

std::string echo(const std::string& line) { return line; }

bool is_error(const std::string& reply, const std::string& prefix) {
  const JsonValue parsed = parse_json(reply);
  return !parsed.at("ok").boolean && parsed.at("error").str.rfind(prefix, 0) == 0;
}

// Against the old prediction loop (threads never joined) each connection
// kept its 8 MB stack mapped: 1,000 connections grew VmSize by ~8 GB.
TEST(LineServerStress, SequentialConnectionsKeepThreadsFdsAndMemoryFlat) {
#ifdef M_ARENA_MAX
  // glibc gives a thread whose arena is still held by an exiting thread a
  // new 64 MB arena and never returns it, so on a loaded host overlapping
  // cycles grow VmSize in 64 MB steps. One arena keeps the measurement on
  // what this test is about: thread stacks and connection buffers.
  mallopt(M_ARENA_MAX, 1);
#endif
  ServerThread server(echo);
  const auto cycle = [&] {
    LineClient client(server.path());
    ASSERT_EQ(client.round_trip("ping"), "ping");
  };
  for (int i = 0; i < 20; ++i) cycle();  // warm allocator and stack caches
  // The accept loop joins finished threads on its 100 ms poll tick.
  const auto reaped = [] { std::this_thread::sleep_for(std::chrono::milliseconds(300)); };
  reaped();
  const std::size_t tasks = entries("/proc/self/task");
  const std::size_t fds = entries("/proc/self/fd");
  const std::size_t vm_kb = vm_size_kb();

  for (int i = 0; i < 2000; ++i) cycle();

  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while ((entries("/proc/self/task") > tasks || entries("/proc/self/fd") > fds) &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  reaped();
  EXPECT_LE(entries("/proc/self/task"), tasks);
  EXPECT_LE(entries("/proc/self/fd"), fds);
  EXPECT_LT(vm_size_kb(), vm_kb + 64 * 1024) << "VmSize grew from " << vm_kb << " kB";
}

TEST(LineServerStress, ConnectionPastTheCapIsRefusedUntilOneCloses) {
  ServerThread server(echo);
  std::vector<std::unique_ptr<LineClient>> held;
  for (std::size_t i = 0; i < kMaxConnections; ++i) {
    held.push_back(std::make_unique<LineClient>(server.path()));
    ASSERT_EQ(held.back()->round_trip("hold"), "hold") << "connection " << i;
  }
  {
    LineClient extra(server.path());
    const std::string reply = extra.read_line().value_or("<none>");
    EXPECT_TRUE(is_error(reply, "overloaded")) << reply;
    EXPECT_TRUE(extra.closed_by_server());
  }

  held.pop_back();  // one of the 64 hangs up
  bool served = false;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (!served && Clock::now() < deadline) {
    LineClient next(server.path());  // at most 64 + 1 sockets open
    served = next.round_trip("again") == "again";
  }
  EXPECT_TRUE(served);
  for (const auto& client : held) EXPECT_EQ(client->round_trip("still"), "still");
}

// Against the old prediction loop, shutdown joined a thread blocked in read()
// on a client that never closed, so the daemon never exited.
TEST(LineServerStress, IdleClientDoesNotHoldUpShutdown) {
  std::atomic<bool> stopped{false};
  ServerThread server(
      [&](const std::string& line) {
        if (line == "shutdown") stopped = true;
        return line;
      },
      [&] { return stopped.load(); });
  LineClient idle(server.path());
  ASSERT_EQ(idle.round_trip("hello"), "hello");
  const auto t0 = Clock::now();
  EXPECT_EQ(line_server::round_trip(server.path(), "shutdown"), "shutdown");
  EXPECT_TRUE(server.wait_exit(kDrainSeconds));
  EXPECT_LT(std::chrono::duration<double>(Clock::now() - t0).count(), kDrainSeconds);
  EXPECT_TRUE(idle.closed_by_server(1.0));
}

// A client that pipelines requests but never reads leaves its connection
// thread blocked in send(); the drain deadline cuts that socket.
TEST(LineServerStress, StalledReaderIsCutAtTheDrainDeadline) {
  std::atomic<bool> stopped{false};
  const std::string big(1u << 20, 'b');
  ServerThread server(
      [&](const std::string& line) {
        if (line == "shutdown") stopped = true;
        return line == "big" ? big : line;
      },
      [&] { return stopped.load(); });
  LineClient stalled(server.path());
  ASSERT_TRUE(stalled.send("big\nbig\nbig\nbig\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = Clock::now();
  EXPECT_EQ(line_server::round_trip(server.path(), "shutdown"), "shutdown");
  EXPECT_TRUE(server.wait_exit(kDrainSeconds + 5.0));
  const double waited = std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_GE(waited, kDrainSeconds - 0.5);
  EXPECT_LT(waited, kDrainSeconds + 2.0);
}

}  // namespace
}  // namespace flaml::testing
