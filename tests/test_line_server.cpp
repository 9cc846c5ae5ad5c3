// The shared line-JSON transport (src/common/line_server.h) over stdio and
// AF_UNIX. Each daemon once had its own hand-written loop, and each test
// below pins a defect one of those loops had: SIGPIPE on a hung-up client,
// quadratic and unbounded line buffers, and (for the search daemon) one
// connection starving every other. The LineServerFuzz property checks that
// every complete line of a malformed, randomly split stream gets exactly one
// reply, in order, byte-identical to calling the handler directly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/line_server.h"
#include "common/wire.h"
#include "server/service.h"
#include "support/line_client.h"
#include "support/prop.h"
#include "support/resume_test_util.h"

namespace flaml::testing {
namespace {

using line_server::kMaxLineBytes;
using Clock = std::chrono::steady_clock;

// Stateless, and shaped like the services' handle_line: a compact echo of
// the parsed request, or a typed error reply.
std::string echo_json(const std::string& line) {
  try {
    return dump_json_compact(parse_json(line));
  } catch (const std::exception& e) {
    return dump_json_compact(
        wire::error_response(std::string("bad request JSON: ") + e.what()));
  }
}

const line_server::Stop kNever = [] { return false; };

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool is_error(const std::string& reply, const std::string& prefix) {
  const JsonValue parsed = parse_json(reply);
  return !parsed.at("ok").boolean && parsed.at("error").str.rfind(prefix, 0) == 0;
}

// Hands its text out in the given piece sizes, the way a pipe delivers
// separate writes: in_avail() never reports past the current piece.
class ChunkedInput : public std::streambuf {
 public:
  ChunkedInput(std::string text, std::vector<std::size_t> pieces)
      : text_(std::move(text)), pieces_(std::move(pieces)) {}

 protected:
  int_type underflow() override {
    if (at_ >= text_.size()) return traits_type::eof();
    std::size_t size = next_ < pieces_.size() ? pieces_[next_++] : text_.size();
    size = std::clamp<std::size_t>(size, 1, text_.size() - at_);
    char* begin = text_.data() + at_;
    setg(begin, begin, begin + size);
    at_ += size;
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string text_;
  std::vector<std::size_t> pieces_;
  std::size_t next_ = 0;
  std::size_t at_ = 0;
};

std::vector<std::string> serve_stdio(std::string text,
                                     std::vector<std::size_t> pieces,
                                     const line_server::Handler& handler,
                                     const line_server::Stop& stop = kNever) {
  ChunkedInput buffer(std::move(text), std::move(pieces));
  std::istream in(&buffer);
  std::ostringstream out;
  line_server::serve_lines(in, out, handler, stop);
  std::vector<std::string> lines;
  std::istringstream parse(out.str());
  for (std::string line; std::getline(parse, line);) lines.push_back(line);
  return lines;
}

// --- framing -----------------------------------------------------------------

TEST(LineServer, StdioIgnoresBlankLinesAndAnswersAFinalPartialLine) {
  const auto replies =
      serve_stdio("{\"a\":1}\n\n\n[2]\n\n{\"b\" : 3}", {5, 1, 7}, echo_json);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0], "{\"a\":1}");
  EXPECT_EQ(replies[1], "[2]");
  EXPECT_EQ(replies[2], "{\"b\":3}");
}

TEST(LineServer, StdioReadsNothingAfterStop) {
  std::atomic<bool> stopped{false};
  int calls = 0;
  const auto handler = [&](const std::string& line) {
    ++calls;
    if (line == "stop") stopped = true;
    return "re:" + line;
  };
  const auto replies = serve_stdio("a\nstop\nb\nc\n", {}, handler,
                                   [&] { return stopped.load(); });
  EXPECT_EQ(replies, (std::vector<std::string>{"re:a", "re:stop"}));
  EXPECT_EQ(calls, 2);
}

TEST(LineServer, StdioServesALineAtTheCapAndEndsTheStreamPastIt) {
  std::string text(kMaxLineBytes, 'x');
  text += "\n[1]\n";
  text += std::string(2 * kMaxLineBytes, 'y');
  text += "\n[2]\n";
  std::vector<std::size_t> calls;
  const auto handler = [&](const std::string& line) {
    calls.push_back(line.size());
    return "len:" + std::to_string(line.size());
  };
  const auto t0 = Clock::now();
  const auto replies = serve_stdio(std::move(text), {}, handler);
  EXPECT_LT(seconds_since(t0), 2.0);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0], "len:" + std::to_string(kMaxLineBytes));
  EXPECT_EQ(replies[1], "len:3");
  EXPECT_TRUE(is_error(replies[2], "line_too_long")) << replies[2];
  EXPECT_EQ(calls.size(), 2u);  // "[2]" is never read
}

// A 2048-row predict request is ~217 KB; it must reach the handler once,
// whole, however the bytes arrive.
TEST(LineServer, BulkLineInSmallPiecesIsFramedOnce) {
  const std::string bulk = "{\"rows\":\"" + std::string(217000, 'r') + "\"}";
  std::atomic<int> calls{0};
  std::atomic<std::size_t> seen{0};
  const auto handler = [&](const std::string& line) {
    ++calls;
    seen = line.size();
    return std::string("ok");
  };

  const auto stdio = serve_stdio(bulk + "\n",
                                 std::vector<std::size_t>(64, 4096), handler);
  EXPECT_EQ(stdio, (std::vector<std::string>{"ok"}));
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen.load(), bulk.size());

  calls = 0;
  ServerThread server(handler);
  LineClient client(server.path());
  const std::string framed = bulk + "\n";
  for (std::size_t at = 0; at < framed.size(); at += 4096) {
    ASSERT_TRUE(client.send(std::string_view(framed).substr(at, 4096)));
  }
  EXPECT_EQ(client.read_line().value_or("<none>"), "ok");
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen.load(), bulk.size());
}

TEST(LineServer, SocketDropsALineCutOffByAHangUp) {
  std::atomic<int> calls{0};
  ServerThread server([&](const std::string& line) {
    ++calls;
    return echo_json(line);
  });
  LineClient client(server.path());
  ASSERT_TRUE(client.send("\n[1]\n\n[2"));
  client.shutdown_write();
  EXPECT_EQ(client.read_line().value_or("<none>"), "[1]");
  EXPECT_TRUE(client.closed_by_server());
  EXPECT_EQ(calls.load(), 1);
}

TEST(LineServer, RoundTripReturnsLongRepliesWhole) {
  const std::string big(3 * 65536 + 17, 'v');
  ServerThread server([&](const std::string&) { return big; });
  EXPECT_EQ(line_server::round_trip(server.path(), "x"), big);
  try {
    line_server::round_trip(server.path() + ".missing", "x");
    FAIL() << "connect to a missing socket must throw";
  } catch (const std::exception& e) {
    EXPECT_EQ(std::string(e.what()).rfind("connect('", 0), 0u) << e.what();
  }
}

// --- hang-ups and over-long lines on the socket --------------------------------

// Against a write() loop, the first reply to the closed peer raised SIGPIPE
// and killed the whole process.
TEST(LineServer, HungUpPipelinedClientDoesNotKillTheServer) {
  std::atomic<bool> hung_up{false};
  std::atomic<int> pipelined_calls{0};
  ServerThread server([&](const std::string& line) {
    if (line == R"({"op":"ping"})") {
      ++pipelined_calls;
      while (!hung_up) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return echo_json(line);
  });
  {
    LineClient client(server.path());
    std::string pipelined;
    for (int i = 0; i < 2000; ++i) pipelined += "{\"op\":\"ping\"}\n";
    ASSERT_TRUE(client.send(pipelined));
  }  // closed without reading a single reply
  hung_up = true;
  const auto deadline = deadline_after(10.0);
  while (pipelined_calls == 0 && Clock::now() < deadline) std::this_thread::yield();
  LineClient next(server.path());
  EXPECT_EQ(next.round_trip(R"({"op":"next"})"), R"({"op":"next"})");
  // The failed write closed that connection: no further line was handled.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(pipelined_calls.load(), 1);
}

// Against the old loops a newline-free stream grew the buffer without bound
// and rescanned it on every read (6.6 s for 32 MiB); now it is refused once
// it passes the cap.
TEST(LineServer, OverLongLineIsRefusedQuicklyAndOthersAreStillServed) {
  std::atomic<int> calls{0};
  ServerThread server([&](const std::string& line) {
    ++calls;
    return echo_json(line);
  });
  LineClient bystander(server.path());
  LineClient flooder(server.path());
  const std::string flood(32u << 20, 'x');
  const auto t0 = Clock::now();
  std::thread sender([&] {
    for (std::size_t at = 0; at < flood.size(); at += 1u << 20) {
      if (!flooder.send(std::string_view(flood).substr(at, 1u << 20))) break;
    }
  });
  const std::string reply = flooder.read_line().value_or("<none>");
  const double elapsed = seconds_since(t0);
  EXPECT_TRUE(flooder.closed_by_server());
  flooder.hang_up();
  sender.join();
  EXPECT_LT(elapsed, 2.0);
  EXPECT_TRUE(is_error(reply, "line_too_long")) << reply.substr(0, 200);
  EXPECT_EQ(bystander.round_trip("[7]"), "[7]");
  EXPECT_EQ(calls.load(), 1);
}

// --- the search daemon, served concurrently ------------------------------------

using server::SearchDaemon;
using server::SearchService;

// Stub searches, paced so an unbounded job stays running without spinning.
SearchService::Customize paced_stub_customize() {
  return [](AutoMLOptions& options, std::vector<LearnerPtr>& extra_learners) {
    const AutoMLOptions wire = options;
    options = resume_options(wire.seed, wire.max_iterations);
    options.time_budget_seconds = wire.time_budget_seconds;
    options.on_trial_committed = [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    extra_learners = {std::make_shared<StubLearner>("stub_fast", 1.0),
                      std::make_shared<StubLearner>("stub_mid", 1.9),
                      std::make_shared<StubLearner>("stub_slow", 15.0)};
  };
}

struct SearchFixture {
  SearchFixture() : daemon({/*slots=*/1, /*trace_capacity=*/512}), service(daemon) {
    service.set_customize(paced_stub_customize());
  }
  // Cancels any job first, so a handler still blocked in "wait" returns.
  ~SearchFixture() { daemon.shutdown(); }
  SearchDaemon daemon;
  SearchService service;
  ServerThread server{[this](const std::string& line) { return service.handle_line(line); },
                      [this] { return service.shutdown_requested(); }};
};

// The old search loop served one connection at a time: a client blocked in
// "wait" held every other client's request unread.
TEST(LineServerSearch, WaitOnOneConnectionDoesNotBlockAnother) {
  SearchFixture f;
  const std::string submitted = line_server::round_trip(
      f.server.path(),
      R"({"op":"submit","synthetic":{"rows":100,"features":5,"seed":3},)"
      R"("budget_seconds":1000000,"max_iterations":0})");
  ASSERT_EQ(parse_json(submitted).at("id").number, 1.0) << submitted;

  LineClient waiter(f.server.path());
  ASSERT_TRUE(waiter.send("{\"op\":\"wait\",\"id\":1}\n"));
  EXPECT_FALSE(waiter.read_line(0.05).has_value());  // blocked on the job

  LineClient other(f.server.path());
  const JsonValue status = parse_json(other.round_trip(R"({"op":"status","id":1})"));
  ASSERT_TRUE(status.at("ok").boolean);
  const std::string state = status.at("job").at("state").str;
  EXPECT_TRUE(state == "running" || state == "queued") << state;
  const JsonValue list = parse_json(other.round_trip(R"({"op":"list"})"));
  EXPECT_EQ(list.at("jobs").array.size(), 1u);
  const JsonValue cancel = parse_json(other.round_trip(R"({"op":"cancel","id":1})"));
  EXPECT_TRUE(cancel.at("cancelled").boolean);

  const std::string waited = waiter.read_line().value_or("{}");
  EXPECT_EQ(parse_json(waited).at("job").at("state").str, "cancelled") << waited;
  EXPECT_NE(other.round_trip(R"({"op":"shutdown"})").find("\"bye\":true"),
            std::string::npos);
  EXPECT_TRUE(f.server.wait_exit(line_server::kDrainSeconds));
}

// The old search loop blocked in read() on an idle connection.
TEST(LineServerSearch, IdleConnectionDoesNotDelayPing) {
  SearchFixture f;
  LineClient idle(f.server.path());
  LineClient pinger(f.server.path());
  const auto t0 = Clock::now();
  ASSERT_TRUE(pinger.send("{\"op\":\"ping\"}\n"));
  const std::string pong = pinger.read_line(2.0).value_or("<none>");
  EXPECT_LT(seconds_since(t0), 1.0);
  EXPECT_NE(pong.find("\"pong\":true"), std::string::npos) << pong;
  EXPECT_NE(pinger.round_trip(R"({"op":"shutdown"})").find("\"bye\":true"),
            std::string::npos);
  // The idle client never closes; the daemon exits anyway.
  EXPECT_TRUE(f.server.wait_exit(line_server::kDrainSeconds));
  EXPECT_TRUE(idle.closed_by_server(1.0));
}

// --- seeded malformed-input fuzz -------------------------------------------------

constexpr const char* kTooLong = "<line_too_long>";

// One generated client stream and the replies it must get.
struct FuzzStream {
  std::string bytes;
  std::vector<std::size_t> pieces;  // how the bytes are split across writes
  std::vector<std::string> socket_replies;
  std::vector<std::string> stdio_replies;  // + the final partial line
  bool hang_up = false;  // the client closes both directions mid-line
};

std::string random_line(Rng& rng, int index) {
  const double kind = rng.uniform();
  if (kind < 0.15) return "";
  if (kind < 0.5) return R"({"op":"ping","n":)" + std::to_string(index) + "}";
  if (kind < 0.6) return std::string("[\"a") + '\0' + "b\"]";  // a NUL in a JSON string
  std::string line;
  const std::size_t size = 1 + rng.uniform_index(80);
  for (std::size_t i = 0; i < size; ++i) {
    char c = static_cast<char>(rng.uniform_index(256));
    if (c == '\n') c = '\0';
    line += c;
  }
  return line;
}

FuzzStream make_stream(Rng& rng) {
  FuzzStream s;
  const int n_lines = static_cast<int>(rng.uniform_index(25));
  const int over_at =
      rng.bernoulli(0.1) ? static_cast<int>(rng.uniform_index(n_lines + 1)) : -1;
  bool over = false;
  for (int i = 0; i < n_lines; ++i) {
    if (i == over_at) {
      s.bytes += std::string(kMaxLineBytes + 1 + rng.uniform_index(4096), 'z');
      if (rng.bernoulli(0.5)) s.bytes += '\n';
      if (!over) {
        s.socket_replies.push_back(kTooLong);
        s.stdio_replies.push_back(kTooLong);
      }
      over = true;
    }
    const std::string line = random_line(rng, i);
    s.bytes += line + '\n';
    if (!over && !line.empty()) {
      s.socket_replies.push_back(echo_json(line));
      s.stdio_replies.push_back(echo_json(line));
    }
  }
  if (rng.bernoulli(0.3)) {  // a disconnect in the middle of a line
    std::string tail = random_line(rng, n_lines);
    s.bytes += tail;
    s.hang_up = rng.bernoulli(0.5);
    if (!over && !tail.empty()) s.stdio_replies.push_back(echo_json(tail));
  }
  for (std::size_t at = 0; at < s.bytes.size();) {
    const double kind = rng.uniform();
    std::size_t size = kind < 0.4   ? 1 + rng.uniform_index(16)
                       : kind < 0.9 ? 1 + rng.uniform_index(4096)
                                    : 4097 + rng.uniform_index(1u << 20);
    if (at > (1u << 20)) size = (1u << 20);  // keep over-cap streams quick
    size = std::min(size, s.bytes.size() - at);
    s.pieces.push_back(size);
    at += size;
  }
  return s;
}

void expect_replies(const std::vector<std::string>& got,
                    const std::vector<std::string>& want, const char* path) {
  ASSERT_EQ(got.size(), want.size()) << path;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (want[i] == kTooLong) {
      EXPECT_TRUE(is_error(got[i], "line_too_long")) << path << " reply " << i;
    } else {
      EXPECT_EQ(got[i], want[i]) << path << " reply " << i;
    }
  }
}

FLAML_PROP(LineServerFuzz, EveryCompleteLineGetsOneReplyInOrder, 40) {
  const FuzzStream s = make_stream(prop.rng);

  expect_replies(serve_stdio(s.bytes, s.pieces, echo_json), s.stdio_replies,
                 "stdio");

  ServerThread server(echo_json);
  {
    LineClient client(server.path());
    std::thread sender([&] {
      std::size_t at = 0;
      for (const std::size_t size : s.pieces) {
        if (!client.send(std::string_view(s.bytes).substr(at, size))) return;
        at += size;
      }
      s.hang_up ? client.hang_up() : client.shutdown_write();
    });
    std::vector<std::string> replies;
    if (!s.hang_up) {
      while (auto line = client.read_line()) replies.push_back(*line);
    }
    sender.join();
    if (!s.hang_up) expect_replies(replies, s.socket_replies, "socket");
  }
  // Whatever the stream did, the server still answers.
  LineClient after(server.path());
  EXPECT_EQ(after.round_trip(R"({"op":"ping"})"), R"({"op":"ping"})");
}

}  // namespace
}  // namespace flaml::testing
