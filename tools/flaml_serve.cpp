// flaml_serve — the multi-job search daemon and its client, in one binary.
//
// Daemon:
//   flaml_serve serve [--slots=2] [--trace-capacity=4096]        # stdio
//   flaml_serve serve --socket=/tmp/flaml.sock [--slots=2]       # AF_UNIX
//
// stdio mode reads one JSON request per line on stdin and writes one JSON
// response per line on stdout (the protocol in src/server/service.h) —
// scriptable with a heredoc, which is exactly what scripts/serve_smoke.sh
// does in CI. Socket mode serves each connection on its own thread (the
// shared transport in src/common/line_server.h), so a blocking "wait" never
// holds up another client; it exits after a shutdown op.
//
// Client (every subcommand needs --socket=PATH):
//   flaml_serve ping|list|wait-all|shutdown          --socket=PATH
//   flaml_serve status|cancel|preempt|result|wait    --socket=PATH --id=N
//   flaml_serve events    --socket=PATH --id=N [--since=SEQ]
//   flaml_serve submit    --socket=PATH
//       (--csv=train.csv [--label=col] | --synthetic=ROWS:FEATURES:SEED)
//       [--task=binary|multiclass|regression] [--budget=5] [--metric=...]
//       [--estimators=a,b] [--max-iterations=N] [--seed=1] [--name=...]
//       [--priority=0] [--quantum=8] [--deadline=SECONDS]
//   flaml_serve request   --socket=PATH --json='{"op":...}'      # raw line
//
// Each client invocation sends one request and prints the one-line JSON
// response verbatim; the exit code is 0 iff the response has "ok": true.

#include <cstdio>
#include <iostream>
#include <string>

#include "common/error.h"
#include "common/line_server.h"
#include "server/service.h"
#include "flags.h"

using namespace flaml;
using namespace flaml::server;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: flaml_serve serve [--slots=2] [--socket=PATH]\n"
      "       flaml_serve ping|list|wait-all|shutdown --socket=PATH\n"
      "       flaml_serve status|cancel|preempt|result|wait --socket=PATH --id=N\n"
      "       flaml_serve events --socket=PATH --id=N [--since=SEQ]\n"
      "       flaml_serve submit --socket=PATH (--csv=F | --synthetic=R:F:S)\n"
      "                   [--task=binary] [--budget=5] [--max-iterations=N] ...\n"
      "       flaml_serve request --socket=PATH --json='{\"op\":...}'\n");
  return 2;
}

void set_if(JsonValue& request, int argc, char** argv, const std::string& key,
            const std::string& field, bool numeric) {
  const std::string value = flag(argc, argv, key, "");
  if (value.empty()) return;
  request.set(field, numeric ? JsonValue::make_number(std::stod(value))
                             : JsonValue::make_string(value));
}

JsonValue build_submit(int argc, char** argv) {
  JsonValue request = JsonValue::make_object();
  request.set("op", JsonValue::make_string("submit"));
  const std::string csv = flag(argc, argv, "csv", "");
  const std::string synthetic = flag(argc, argv, "synthetic", "");
  FLAML_REQUIRE(csv.empty() != synthetic.empty(),
                "submit needs exactly one of --csv / --synthetic");
  set_if(request, argc, argv, "task", "task", false);
  if (!csv.empty()) {
    request.set("csv", JsonValue::make_string(csv));
    set_if(request, argc, argv, "label", "label", false);
  } else {
    // ROWS[:FEATURES[:SEED]]
    JsonValue spec = JsonValue::make_object();
    if (const JsonValue* task = request.find("task")) {
      spec.set("task", *task);
    }
    std::size_t begin = 0;
    const char* keys[] = {"rows", "features", "seed"};
    for (int i = 0; i < 3 && begin <= synthetic.size(); ++i) {
      std::size_t end = synthetic.find(':', begin);
      if (end == std::string::npos) end = synthetic.size();
      const std::string part = synthetic.substr(begin, end - begin);
      if (!part.empty()) {
        spec.set(keys[i], JsonValue::make_number(std::stod(part)));
      }
      begin = end + 1;
    }
    request.set("synthetic", std::move(spec));
  }
  set_if(request, argc, argv, "budget", "budget_seconds", true);
  set_if(request, argc, argv, "metric", "metric", false);
  set_if(request, argc, argv, "max-iterations", "max_iterations", true);
  set_if(request, argc, argv, "seed", "seed", true);
  set_if(request, argc, argv, "name", "name", false);
  set_if(request, argc, argv, "priority", "priority", true);
  set_if(request, argc, argv, "quantum", "quantum_trials", true);
  set_if(request, argc, argv, "deadline", "deadline_seconds", true);
  const std::string estimators = flag(argc, argv, "estimators", "");
  if (!estimators.empty()) {
    JsonValue list = JsonValue::make_array();
    std::string token;
    for (char c : estimators + ",") {
      if (c == ',') {
        if (!token.empty()) list.push(JsonValue::make_string(token));
        token.clear();
      } else {
        token += c;
      }
    }
    request.set("estimators", std::move(list));
  }
  return request;
}

int run_client(const std::string& op, int argc, char** argv) {
  const std::string socket_path = flag(argc, argv, "socket", "");
  if (socket_path.empty()) {
    std::fprintf(stderr, "client mode needs --socket=PATH\n");
    return 2;
  }
  std::string line;
  if (op == "request") {
    line = flag(argc, argv, "json", "");
    FLAML_REQUIRE(!line.empty(), "request needs --json='{...}'");
  } else if (op == "submit") {
    line = dump_json_compact(build_submit(argc, argv));
  } else {
    JsonValue request = JsonValue::make_object();
    // CLI spelling "wait-all" -> wire spelling "wait_all".
    request.set("op", JsonValue::make_string(op == "wait-all" ? "wait_all" : op));
    set_if(request, argc, argv, "id", "id", true);
    set_if(request, argc, argv, "since", "since", true);
    line = dump_json_compact(request);
  }
  const std::string response = line_server::round_trip(socket_path, line);
  std::printf("%s\n", response.c_str());
  const JsonValue parsed = parse_json(response);
  const JsonValue* ok = parsed.find("ok");
  return ok != nullptr && ok->is_bool() && ok->boolean ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    if (command == "serve") {
      SearchDaemon::Options options;
      options.slots =
          static_cast<std::size_t>(std::stoul(flag(argc, argv, "slots", "2")));
      options.trace_capacity = static_cast<std::size_t>(
          std::stoul(flag(argc, argv, "trace-capacity", "4096")));
      SearchDaemon daemon(options);
      SearchService service(daemon);
      const std::string socket_path = flag(argc, argv, "socket", "");
      const auto handler = [&](const std::string& line) { return service.handle_line(line); };
      const auto stop = [&] { return service.shutdown_requested(); };
      if (!socket_path.empty()) return line_server::serve_unix_socket(socket_path, handler, stop);
      line_server::serve_lines(std::cin, std::cout, handler, stop);
      // EOF without a shutdown op still tears the daemon down cleanly
      // (cancel everything, drain segments) via ~SearchDaemon.
      return 0;
    }
    const bool known =
        command == "ping" || command == "submit" || command == "status" ||
        command == "list" || command == "cancel" || command == "preempt" ||
        command == "result" || command == "events" || command == "wait" ||
        command == "wait-all" || command == "shutdown" || command == "request";
    if (!known) return usage();
    return run_client(command, argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
