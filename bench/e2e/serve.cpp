// The serving half: the real flaml_predict_serve daemon over AF_UNIX, driven
// by this process (one event-loop thread for the open loop; one thread per
// connection for the closed loop, at most 4 connections either way).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <iostream>
#include <thread>

#include "common/rng.h"
#include "e2e.h"
#include "serve/predict_service.h"

namespace e2e {

using namespace flaml;

namespace {

// Open-loop rate ladder (requests/s). p50_ms/p99_ms are read at the
// reference rate; the ladder always runs through it and then stops at the
// first rate that misses.
constexpr double kRates[] = {500, 1000, 2000, 4000, 8000};
constexpr double kReferenceRate = 1000;
constexpr double kP99LimitMs = 50.0;
constexpr double kFailedLimit = 0.001;
constexpr int kOpenConnections = 4;
constexpr int kBulkConnections = 2;  // plus one connection that swaps
// An unanswered request counts as failed once the step has drained this long.
constexpr double kDrainLimitS = 15.0;

// One daemon process: `serve --socket --threads=2` with the default batch
// flags (256 rows, 2 ms), artifact A loaded at start.
class Daemon {
 public:
  Daemon(const std::string& artifact, const std::string& trace_path) {
    static int counter = 0;
    socket_ = "d" + std::to_string(counter++) + ".sock";  // cwd = run directory
    std::vector<std::string> argv = {FLAML_PREDICT_SERVE_BIN, "serve",
                                     "--socket=" + socket_, "--threads=2",
                                     "--artifact=" + artifact};
    if (!trace_path.empty()) argv.push_back("--trace=" + trace_path);
    const double t0 = now_s();
    pid_ = spawn_process(argv, "daemon.log");
    try {
      wait_ready(t0);
    } catch (...) {
      if (pid_ > 0) {
        kill(pid_, SIGKILL);
        wait_process(std::exchange(pid_, -1), 10.0, nullptr);
      }
      throw;
    }
    ready_s_ = now_s() - t0;
  }

  ~Daemon() {
    try {
      stop();
    } catch (const std::exception& e) {
      std::cerr << "daemon shutdown: " << e.what() << "\n";
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  double ready_s() const { return ready_s_; }
  double hwm_mb() const { return vm_hwm_mb(pid_); }

  JsonValue stats() const {
    LineConn conn(socket_);
    return parse_json(conn.round_trip("{\"op\":\"stats\"}")).at("stats");
  }

  // Every load connection must be closed first: the daemon joins its
  // connection threads, which block in read() until the peer closes.
  void stop() {
    if (pid_ < 0) return;
    const pid_t pid = std::exchange(pid_, -1);
    {
      LineConn conn(socket_);
      conn.round_trip("{\"op\":\"shutdown\"}");
    }
    if (wait_process(pid, 10.0, nullptr) != 0) {
      throw std::runtime_error("daemon did not exit cleanly");
    }
  }

 private:
  // Connect attempts fail until the daemon has loaded its artifact and
  // bound the socket; the first answered ping ends start-up.
  void wait_ready(double t0) {
    while (true) {
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up (see daemon.log)");
      }
      try {
        LineConn probe(socket_);
        const std::string reply = probe.round_trip("{\"op\":\"ping\"}");
        if (reply.find("\"loaded\":true") == std::string::npos) {
          throw std::runtime_error("daemon answered ping without a model: " + reply);
        }
        return;
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()).rfind("connect", 0) != 0) throw;
      }
      if (now_s() - t0 > 10.0) throw std::runtime_error("daemon did not start in 10 s");
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  std::string socket_;
  pid_t pid_ = -1;
  double ready_s_ = 0.0;
};

double histogram_field(const JsonValue& stats, const char* name, const char* field) {
  const JsonValue* h = stats.at("histograms").find(name);
  return h == nullptr ? 0.0 : h->at(field).number;
}

// Mean predict_ms over the predict_batch events of a daemon trace file.
double predict_ms_per_batch(const std::string& trace_path) {
  const std::string text = read_file(trace_path);
  double sum = 0.0, n = 0.0;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t nl = text.find('\n', at);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(at, nl - at);
    at = nl + 1;
    if (line.find("\"predict_batch\"") == std::string::npos) continue;
    sum += parse_json(line).at("predict_ms").number;
    n += 1.0;
  }
  return n > 0.0 ? sum / n : 0.0;
}

// Daemon-side numbers from its stats op and trace file (traced runs only).
void daemon_metrics(const JsonValue& stats, const std::string& trace_path, Metrics& out) {
  out.set("serve.queue_ms_p50", histogram_field(stats, "predict.queue_ms", "p50"), "ms");
  out.set("serve.queue_ms_p90", histogram_field(stats, "predict.queue_ms", "p90"), "ms");
  out.set("serve.daemon_latency_ms_p50", histogram_field(stats, "predict.latency_ms", "p50"),
          "ms");
  out.set("serve.daemon_latency_ms_p90", histogram_field(stats, "predict.latency_ms", "p90"),
          "ms");
  out.set("serve.batch_rows_mean", histogram_field(stats, "predict.batch_rows", "mean"),
          "rows");
  out.set("serve.batch_requests_mean",
          histogram_field(stats, "predict.batch_requests", "mean"), "count");
  out.set("serve.predict_ms_per_batch", predict_ms_per_batch(trace_path), "ms");
}

struct Check {
  std::uint64_t sent = 0, failed = 0, wrong = 0, errors = 0;
};

// A reply is correct when it is ok and bit-identical to direct predict_many
// of the generation it names (odd generations serve A, even ones B: the
// daemon starts on A and every swap alternates).
void check_reply(const std::string& line, std::uint32_t payload, const ServeInputs& in,
                 ReplyView& parsed, Check& check) {
  if (!scan_reply(line, parsed)) {
    ++check.errors;
    ++check.failed;
    return;
  }
  const int model = parsed.generation % 2 == 1 ? 0 : 1;
  if (in.expect[model].empty() || !bits_equal(parsed.values, in.expect[model][payload])) {
    ++check.wrong;
    ++check.failed;
  }
}

struct Phase {
  double p50_ms = 0.0, p99_ms = 0.0, rows_per_s = 0.0, late_p99_ms = 0.0;
  std::uint64_t measured = 0;
  bool pass = false;
};

// ------------------------------------------------------------------ open loop

struct OpenConn {
  int fd = -1;
  std::string out;
  std::size_t out_at = 0;
  std::string in;
  std::deque<std::uint32_t> waiting;  // request ids, in send order
};

void set_nonblocking(int fd) { fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK); }

bool flush(OpenConn& c) {
  while (c.out_at < c.out.size()) {
    const ssize_t w = ::write(c.fd, c.out.data() + c.out_at, c.out.size() - c.out_at);
    if (w < 0 && (errno == EAGAIN || errno == EINTR)) break;
    if (w <= 0) return false;
    c.out_at += static_cast<std::size_t>(w);
  }
  if (c.out_at == c.out.size()) {
    c.out.clear();
    c.out_at = 0;
  }
  return true;
}

// One ladder step on a fresh daemon: Poisson arrivals at `rate`, round-robin
// over 4 non-blocking connections from this one thread. Each request is timed
// from its scheduled send time, so a stall also delays the requests behind
// it. Replies are checked after the step, off the timed path. The step's
// p50 and p99 are medians over `windows` equal slices of the measured time,
// so a burst of load on the host moves one slice, not the result.
Phase open_step(const Options& options, const ServeInputs& in, double rate, double warm,
                double measure, int windows, bool traced, Check& check, Metrics& layer,
                std::vector<Span>& spans, double& hwm) {
  const std::string tag = "r" + std::to_string(static_cast<int>(rate));
  const std::string trace_path = traced ? options.dir + "/daemon_" + tag + ".jsonl" : "";
  Daemon daemon(in.artifact[0], trace_path);
  if (traced) daemon.stats();  // the step's opening boundary

  const double step_s = warm + measure;
  struct Request {
    double sched = 0.0, sent = -1.0, recv = -1.0;
    std::uint32_t payload = 0;
    std::string reply;
  };
  std::vector<Request> reqs;
  Rng rng(mix_seed(options.seed, 100 + static_cast<std::uint64_t>(rate)));
  for (double t = rng.exponential(rate); t < step_s; t += rng.exponential(rate)) {
    reqs.push_back({t, -1.0, -1.0,
                    static_cast<std::uint32_t>(rng.uniform_index(in.payloads.size())), {}});
  }

  std::vector<OpenConn> conns(kOpenConnections);
  std::vector<LineConn> owners;
  for (OpenConn& c : conns) {
    owners.emplace_back(daemon.socket());
    c.fd = owners.back().fd();
    set_nonblocking(c.fd);
  }
  const double origin = now_s();
  std::size_t next = 0, outstanding = 0;
  bool broken = false;
  while (!broken) {
    double now = now_s() - origin;
    for (; next < reqs.size() && reqs[next].sched <= now; ++next) {
      OpenConn& c = conns[next % kOpenConnections];
      c.out += in.payloads[reqs[next].payload];
      c.out += '\n';
      c.waiting.push_back(static_cast<std::uint32_t>(next));
      reqs[next].sent = now;
      ++outstanding;
    }
    for (OpenConn& c : conns) broken = broken || !flush(c);
    if ((next == reqs.size() && outstanding == 0) || now > step_s + kDrainLimitS) break;

    pollfd fds[kOpenConnections];
    for (int i = 0; i < kOpenConnections; ++i) {
      fds[i] = {conns[i].fd, static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT)), 0};
    }
    double wait = next < reqs.size() ? reqs[next].sched - now : 0.05;
    wait = std::clamp(wait, 0.0, 0.05);
    timespec ts{0, static_cast<long>(wait * 1e9)};
    if (ppoll(fds, kOpenConnections, &ts, nullptr) <= 0) continue;
    now = now_s() - origin;
    for (int i = 0; i < kOpenConnections; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      OpenConn& c = conns[i];
      char chunk[65536];
      ssize_t n = 0;
      while ((n = ::read(c.fd, chunk, sizeof chunk)) > 0) {
        c.in.append(chunk, static_cast<std::size_t>(n));
      }
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) broken = true;
      std::size_t start = 0, nl = 0;
      while ((nl = c.in.find('\n', start)) != std::string::npos && !c.waiting.empty()) {
        Request& r = reqs[c.waiting.front()];
        c.waiting.pop_front();
        r.recv = now;
        r.reply.assign(c.in, start, nl - start);
        --outstanding;
        start = nl + 1;
      }
      c.in.erase(0, start);
    }
  }
  std::vector<double> late;
  for (const Request& r : reqs) {
    if (r.sched >= warm && r.sent >= 0.0) late.push_back((r.sent - r.sched) * 1e3);
  }
  JsonValue closing;
  if (traced) closing = daemon.stats();
  hwm = std::max(hwm, daemon.hwm_mb());
  owners.clear();
  daemon.stop();

  Phase phase;
  std::vector<std::vector<double>> latency(static_cast<std::size_t>(windows));
  std::uint64_t lost = 0, completed_rows = 0;
  double last_recv = warm;
  ReplyView parsed;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    ++check.sent;
    if (r.recv < 0.0) {
      ++check.failed;
    } else {
      check_reply(r.reply, r.payload, in, parsed, check);
    }
    if (r.sched < warm) continue;
    ++phase.measured;
    auto& slice = latency[std::min<std::size_t>(
        static_cast<std::size_t>((r.sched - warm) / measure * windows), windows - 1)];
    if (r.recv < 0.0) {
      // Unanswered: it waited at least until the drain gave up on it.
      ++lost;
      slice.push_back((step_s + kDrainLimitS - r.sched) * 1e3);
      continue;
    }
    slice.push_back((r.recv - r.sched) * 1e3);
    completed_rows += in.rows_per_request;
    last_recv = std::max(last_recv, r.recv);
    if (traced) {
      spans.push_back({"request", origin + r.sched, origin + r.recv, "step_" + tag, i});
    }
  }
  if (traced) spans.push_back({"step_" + tag, origin, now_s(), "workload", 0});
  std::vector<double> p50s, p99s;
  for (const auto& slice : latency) {
    p50s.push_back(median(slice));
    p99s.push_back(quantile(slice, 0.99));
  }
  phase.p50_ms = median(p50s);
  phase.p99_ms = median(p99s);
  // Delivered rows over the time it took to deliver them.
  phase.rows_per_s =
      completed_rows == 0 ? 0.0 : static_cast<double>(completed_rows) / (last_recv - warm);
  phase.late_p99_ms = quantile(late, 0.99);
  phase.pass = !broken && phase.p99_ms <= kP99LimitMs &&
               static_cast<double>(lost) <= kFailedLimit * static_cast<double>(phase.measured);
  layer.set("loadgen.p50_ms." + tag, phase.p50_ms, "ms");
  layer.set("loadgen.p99_ms." + tag, phase.p99_ms, "ms");
  if (traced && rate == kReferenceRate) daemon_metrics(closing, trace_path, layer);
  return phase;
}

// ---------------------------------------------------------------- closed loop

// Two connections send bulk requests back to back while a third swaps the
// model between A and B every second.
Phase bulk_phase(const Options& options, const ServeInputs& in, double phase_s,
                 bool traced, Check& check, Metrics& layer, std::vector<Span>& spans,
                 double& hwm) {
  const std::string trace_path = traced ? options.dir + "/daemon_bulk.jsonl" : "";
  Daemon daemon(in.artifact[0], trace_path);
  if (traced) daemon.stats();
  const double warm = std::min(1.0, 0.2 * phase_s);
  const double swap_period = std::min(1.0, phase_s / 5.0);
  const double origin = now_s();
  const double stop_at = origin + phase_s;

  struct Sample {
    double sent, recv;
    std::uint32_t payload;
  };
  std::vector<std::vector<Sample>> samples(kBulkConnections);
  std::vector<Check> checks(kBulkConnections);
  std::vector<double> swap_ms;
  std::uint64_t swap_failures = 0;
  std::vector<std::string> errors(kBulkConnections + 1);
  std::vector<std::thread> threads;
  for (int k = 0; k < kBulkConnections; ++k) {
    threads.emplace_back([&, k] {
      try {
        LineConn conn(daemon.socket());
        Rng rng(mix_seed(options.seed, 200 + static_cast<std::uint64_t>(k)));
        ReplyView parsed;
        while (now_s() < stop_at) {
          const auto payload =
              static_cast<std::uint32_t>(rng.uniform_index(in.payloads.size()));
          const double sent = now_s();
          const std::string reply = conn.round_trip(in.payloads[payload]);
          samples[k].push_back({sent - origin, now_s() - origin, payload});
          ++checks[k].sent;
          check_reply(reply, payload, in, parsed, checks[k]);
        }
      } catch (const std::exception& e) {
        errors[k] = e.what();
      }
    });
  }
  threads.emplace_back([&] {
    try {
      LineConn conn(daemon.socket());
      for (int n = 1; origin + n * swap_period < stop_at; ++n) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(origin + n * swap_period))));
        const std::string target = in.artifact[n % 2 == 1 ? 1 : 0];
        const double t0 = now_s();
        const std::string reply =
            conn.round_trip("{\"op\":\"swap\",\"artifact\":\"" + target + "\"}");
        swap_ms.push_back((now_s() - t0) * 1e3);
        if (reply.find("\"ok\":true") == std::string::npos) ++swap_failures;
      }
    } catch (const std::exception& e) {
      errors[kBulkConnections] = e.what();
    }
  });
  for (std::thread& t : threads) t.join();
  JsonValue closing;
  if (traced) closing = daemon.stats();
  hwm = std::max(hwm, daemon.hwm_mb());
  daemon.stop();

  Phase phase;
  std::vector<double> latency;
  std::uint64_t rows = 0;
  for (int k = 0; k < kBulkConnections; ++k) {
    check.sent += checks[k].sent;
    check.failed += checks[k].failed;
    check.wrong += checks[k].wrong;
    check.errors += checks[k].errors;
    for (std::size_t i = 0; i < samples[k].size(); ++i) {
      const Sample& s = samples[k][i];
      if (s.sent < warm || s.recv > phase_s) continue;
      latency.push_back((s.recv - s.sent) * 1e3);
      rows += in.rows_per_request;
      if (traced) {
        spans.push_back({"request", origin + s.sent, origin + s.recv, "bulk",
                         static_cast<std::uint64_t>(k) << 32 | i});
      }
    }
  }
  for (const std::string& e : errors) {
    if (!e.empty()) {
      std::cerr << "bulk connection: " << e << "\n";
      ++check.errors;
      ++check.failed;
    }
  }
  check.sent += swap_ms.size();
  check.failed += swap_failures;
  check.errors += swap_failures;
  if (traced) spans.push_back({"bulk", origin, now_s(), "workload", 0});
  phase.p50_ms = median(latency);
  phase.p99_ms = quantile(latency, 0.99);
  phase.rows_per_s = static_cast<double>(rows) / (phase_s - warm);
  layer.set("serve.swaps", static_cast<double>(swap_ms.size()), "count");
  layer.set("serve.swap_ms_p50", median(swap_ms), "ms");
  layer.set("serve.swap_ms_max", swap_ms.empty() ? 0.0 : quantile(swap_ms, 1.0), "ms");
  if (traced) daemon_metrics(closing, trace_path, layer);
  return phase;
}

// ---------------------------------------------------------------- in process

// The daemon's per-request stages, replayed in this process on the
// workload's own request bytes: decode, handle (through a daemon whose
// batch flushes at one row, so no batching wait), predict_many, encode.
void replay_probes(const ServeInputs& in, Metrics& out) {
  serve::PredictDaemonOptions daemon_options;
  daemon_options.max_batch_rows = 1;
  daemon_options.n_threads = 2;
  serve::PredictDaemon daemon(daemon_options);
  daemon.load(in.artifact[0]);
  serve::PredictService service(daemon);
  const serve::CompiledModel model = serve::CompiledModel::load_file(in.artifact[0]);
  std::vector<double> decode, handle, predict, encode;
  const double until = now_s() + 1.0;
  for (std::size_t i = 0; now_s() < until || i < 2 * in.payloads.size(); ++i) {
    const std::size_t p = i % in.payloads.size();
    double t0 = now_s();
    const JsonValue request = parse_json(in.payloads[p]);
    double t1 = now_s();
    decode.push_back((t1 - t0) * 1e6);
    const JsonValue response = service.handle(request);
    t0 = now_s();
    handle.push_back((t0 - t1) * 1e6);
    const std::string bytes = dump_json_compact(response);
    t1 = now_s();
    encode.push_back((t1 - t0) * 1e6);
    t0 = now_s();
    model.predict_many(DataView(in.frames[p]), 2);
    predict.push_back((now_s() - t0) * 1e6);
  }
  out.set("serve.json_decode_us", median(decode), "us");
  out.set("serve.handle_us", median(handle), "us");
  out.set("serve.predict_many_us", median(predict), "us");
  out.set("serve.json_encode_us", median(encode), "us");
}

}  // namespace

HalfResult run_serve_half(const Workload& workload, const Options& options,
                          const ServeInputs& in) {
  HalfResult result;
  Metrics& m = result.metrics;
  const std::string fail = "FAIL " + std::string(workload.name) + " ";

  // Set-up: daemon spawn -> artifact loaded -> first ping answered; one
  // warm-up, then three samples before the traffic and three after it.
  std::vector<double> ready;
  auto sample_ready = [&](int n) {
    for (int i = 0; i < n; ++i) ready.push_back(Daemon(in.artifact[0], "").ready_s());
  };
  Daemon(in.artifact[0], "");
  sample_ready(3);

  const double serve_s = 0.4 * options.seconds;
  Check check;
  double hwm = 0.0;
  Metrics layer;
  Phase e2e_phase;
  double rows_per_s = 0.0;
  double untraced_p50 = 0.0;
  // Layers a workload's traffic never reaches report zero work.
  for (const char* stat : {"loadgen.p50_ms.r", "loadgen.p99_ms.r"}) {
    for (double rate : kRates) layer.set(stat + std::to_string(int(rate)), 0.0, "ms");
  }
  layer.set("serve.swaps", 0.0, "count");
  layer.set("serve.swap_ms_p50", 0.0, "ms");
  layer.set("serve.swap_ms_max", 0.0, "ms");
  if (workload.traffic == Traffic::SmallOpen) {
    // The reference step is four times as long as the others: its p50 and
    // p99 are end-to-end metrics, taken as medians over four slices.
    const double short_s = serve_s / 9.0;
    const double warm_s = 0.25 * short_s;
    if (options.trace) {
      // The untraced reference step that observe.serve_trace_overhead
      // compares against; per-layer numbers come from the traced ladder.
      Metrics ignored;
      double ignored_hwm = 0.0;
      untraced_p50 = open_step(options, in, kReferenceRate, warm_s, 4.0 * short_s, 4, false,
                               check, ignored, result.spans, ignored_hwm)
                         .p50_ms;
    }
    // rows_per_s: at the highest rate met before the first miss, or at
    // the lowest rate when even that one misses.
    bool met_so_far = true;
    for (double rate : kRates) {
      const int windows = rate == kReferenceRate ? 4 : 1;
      const Phase step = open_step(options, in, rate, warm_s, windows * short_s, windows,
                                   options.trace, check, layer, result.spans, hwm);
      if (rate == kReferenceRate) e2e_phase = step;
      if ((met_so_far && step.pass) || rate == kRates[0]) rows_per_s = step.rows_per_s;
      met_so_far = met_so_far && step.pass;
      if (!step.pass && rate >= kReferenceRate) break;
    }
  } else {
    if (options.trace) {
      Metrics ignored;
      double ignored_hwm = 0.0;
      untraced_p50 = bulk_phase(options, in, serve_s / 2.0, false, check, ignored,
                                result.spans, ignored_hwm)
                         .p50_ms;
    }
    e2e_phase = bulk_phase(options, in, options.trace ? serve_s / 2.0 : serve_s,
                           options.trace, check, layer, result.spans, hwm);
    rows_per_s = e2e_phase.rows_per_s;
  }

  sample_ready(3);
  m.set("serve.daemon_ready_s", median(ready), "s");
  m.set("p50_ms", e2e_phase.p50_ms, "ms");
  m.set("p99_ms", e2e_phase.p99_ms, "ms");
  m.set("rows_per_s", rows_per_s, "rows/s");
  m.set("serve_peak_rss_mb", hwm, "MB");
  if (options.trace) {
    m.merge(layer);
    m.set("loadgen.late_p99_ms", e2e_phase.late_p99_ms, "ms");
    m.set("loadgen.sent", static_cast<double>(check.sent), "count");
    // Socket and line framing: what the client waited beyond the daemon's
    // own enqueue-to-reply latency.
    m.set("wire.overhead_ms_p50", e2e_phase.p50_ms - m.get("serve.daemon_latency_ms_p50"),
          "ms");
    m.set("observe.serve_trace_overhead",
          untraced_p50 > 0.0 ? e2e_phase.p50_ms / untraced_p50 - 1.0 : 0.0, "ratio");
    std::vector<double> loads;
    for (int i = 0; i < 5; ++i) {
      const double t0 = now_s();
      serve::CompiledModel::load_file(in.artifact[0]);
      loads.push_back(now_s() - t0);
    }
    m.set("serve.artifact_load_s", median(loads), "s");
    replay_probes(in, m);
  }

  result.attempted = check.sent;
  result.failed = check.failed;
  if (check.wrong > 0) result.failures.push_back(fail + "reply_bits");
  if (check.errors > 0) result.failures.push_back(fail + "reply_error");
  return result;
}

}  // namespace e2e
