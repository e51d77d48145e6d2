// vbr_server — serves plans over the wire.
//
// Reads a datalog program whose rules are ALL view definitions (unlike
// vbr_cli there is no query rule: queries arrive over the network),
// optionally materializes them over --data ground facts, and starts a
// PlanServer (server/plan_server.h): the compact binary protocol on --port
// and the HTTP/1.1 JSON debug endpoint on --http-port.  Planning runs
// through a PlanningService, so admission control, deadlines, and the
// brown-out ladder all apply to network requests exactly as they do to
// in-process callers; every admitted request is planned once.
//
// Usage:
//   vbr_server [--port P] [--http-port P] [--host H]
//              [--workers N] [--queue N] [--data FACTS_FILE]
//              [--max-connections N] [--reject-over-capacity]
//              [--idle-timeout-ms MS] [--progress-timeout-ms MS]
//              [--write-stall-timeout-ms MS] [--drain-grace-ms MS]
//              [--snapshot-path FILE] [--snapshot-interval-s S]
//              [--request-log FILE] [--request-log-max-mb MB]
//              [--request-log-keep K] [VIEWS_FILE]
//
// Port 0 (the default) binds an ephemeral port; both bound ports are
// printed on startup, one per line, as "binary_port=P" / "http_port=P", so
// scripts can scrape them.  The server runs until SIGINT/SIGTERM; on
// signal it first DRAINS — stops accepting, lets in-flight requests
// finish and their responses flush, up to --drain-grace-ms (default 2000,
// 0 = stop immediately) — then force-closes whatever remains.
//
// Connection hygiene (see server/plan_server.h): --idle-timeout-ms evicts
// connections with nothing going on, --progress-timeout-ms evicts clients
// that dribble a request byte-by-byte without ever completing one
// (slowloris), --write-stall-timeout-ms evicts peers that stopped reading
// their responses.  All default to 0 (off).  At --max-connections the
// server pauses accepting (kernel-backlog backpressure) unless
// --reject-over-capacity, which accepts-and-closes instead.
//
// Persistence (planner/snapshot.h):
//   --snapshot-path FILE   warm-start the plan cache from FILE at startup
//                          (a mismatched or missing snapshot is a clean
//                          cold start), save it back every
//                          --snapshot-interval-s seconds (default 30, 0 =
//                          only at shutdown), and save on drain — so a
//                          restarted server serves cache hits from the
//                          very first request;
//   --request-log FILE     append every submitted request (query + options)
//                          to FILE as length-prefixed VBIN records; replay
//                          the stream later with `vbr_cli --replay FILE`.
//   --request-log-max-mb M rotate the log when it would pass M MiB
//                          (FILE -> FILE.1 -> FILE.2 ..., atomic renames
//                          at record boundaries; 0 = never, the default);
//   --request-log-keep K   keep at most K rotated files (default 3);
//                          `vbr_cli --replay FILE` reads the whole set.
//
// Try it:
//   vbr_server --http-port 8080 views.dl &
//   curl -s localhost:8080/plan -d '{"query":"q(S):-part(S,M,C).",
//        "options":{"model":"m2","deadline_ms":100}}'
//   curl -s 'localhost:8080/explain?q=q(S)%20:-%20part(S,M,C).&model=m2'
//   curl -s localhost:8080/statz
//   curl -s localhost:8080/metricz?format=text

#include <csignal>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <semaphore>
#include <sstream>
#include <string>
#include <thread>

#include "cq/parser.h"
#include "engine/io.h"
#include "engine/materialize.h"
#include "planner/planner.h"
#include "planner/service.h"
#include "planner/snapshot.h"
#include "server/plan_server.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "vbr_server: %s\n", message.c_str());
  return 1;
}

// Signal handlers can only poke something async-signal-safe; a binary
// semaphore release is (counting_semaphore::release is signal-safe enough
// for this use on the supported platforms, and the handler runs once).
std::binary_semaphore g_shutdown{0};

void HandleSignal(int) { g_shutdown.release(); }

}  // namespace

int main(int argc, char** argv) {
  using namespace vbr;

  server::PlanServerOptions server_options;
  PlanningService::Options service_options;
  const char* path = nullptr;
  const char* data_path = nullptr;
  const char* snapshot_path = nullptr;
  const char* request_log_path = nullptr;
  RequestLogOptions request_log_options;
  double snapshot_interval_s = 30;
  int drain_grace_ms = 2000;
  for (int i = 1; i < argc; ++i) {
    auto NeedsValue = [&](const char* flag) -> const char* {
      if (++i >= argc) {
        std::fprintf(stderr, "vbr_server: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      server_options.binary_port =
          static_cast<uint16_t>(std::atoi(NeedsValue("--port")));
    } else if (std::strcmp(argv[i], "--http-port") == 0) {
      server_options.http_port =
          static_cast<uint16_t>(std::atoi(NeedsValue("--http-port")));
    } else if (std::strcmp(argv[i], "--host") == 0) {
      server_options.host = NeedsValue("--host");
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      service_options.num_workers =
          static_cast<size_t>(std::atoi(NeedsValue("--workers")));
      if (service_options.num_workers == 0) {
        return Fail("--workers needs a positive count");
      }
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      service_options.max_queue =
          static_cast<size_t>(std::atoi(NeedsValue("--queue")));
      if (service_options.max_queue == 0) {
        return Fail("--queue needs a positive capacity");
      }
    } else if (std::strcmp(argv[i], "--data") == 0) {
      data_path = NeedsValue("--data");
    } else if (std::strcmp(argv[i], "--snapshot-path") == 0) {
      snapshot_path = NeedsValue("--snapshot-path");
    } else if (std::strcmp(argv[i], "--snapshot-interval-s") == 0) {
      snapshot_interval_s = std::atof(NeedsValue("--snapshot-interval-s"));
    } else if (std::strcmp(argv[i], "--request-log") == 0) {
      request_log_path = NeedsValue("--request-log");
    } else if (std::strcmp(argv[i], "--request-log-max-mb") == 0) {
      request_log_options.max_bytes =
          static_cast<size_t>(std::atof(NeedsValue("--request-log-max-mb")) *
                              1024.0 * 1024.0);
    } else if (std::strcmp(argv[i], "--request-log-keep") == 0) {
      request_log_options.keep =
          static_cast<size_t>(std::atoi(NeedsValue("--request-log-keep")));
    } else if (std::strcmp(argv[i], "--max-connections") == 0) {
      server_options.max_connections =
          static_cast<size_t>(std::atoi(NeedsValue("--max-connections")));
      if (server_options.max_connections == 0) {
        return Fail("--max-connections needs a positive count");
      }
    } else if (std::strcmp(argv[i], "--reject-over-capacity") == 0) {
      server_options.reject_over_capacity = true;
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0) {
      server_options.idle_timeout_ms = std::atoi(NeedsValue("--idle-timeout-ms"));
    } else if (std::strcmp(argv[i], "--progress-timeout-ms") == 0) {
      server_options.progress_timeout_ms =
          std::atoi(NeedsValue("--progress-timeout-ms"));
    } else if (std::strcmp(argv[i], "--write-stall-timeout-ms") == 0) {
      server_options.write_stall_timeout_ms =
          std::atoi(NeedsValue("--write-stall-timeout-ms"));
    } else if (std::strcmp(argv[i], "--drain-grace-ms") == 0) {
      drain_grace_ms = std::atoi(NeedsValue("--drain-grace-ms"));
    } else if (argv[i][0] == '-') {
      return Fail(std::string("unknown flag ") + argv[i]);
    } else {
      path = argv[i];
    }
  }

  std::string text;
  if (path != nullptr) {
    std::ifstream in(path);
    if (!in) return Fail(std::string("cannot open ") + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  } else {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  }

  std::string error;
  auto program = ParseProgram(text, &error);
  if (!program.has_value()) return Fail("parse error: " + error);
  if (program->empty()) return Fail("need at least one view rule");
  const ViewSet views(program->begin(), program->end());
  for (const View& v : views) {
    if (!v.IsSafe()) return Fail("unsafe view: " + v.ToString());
  }

  Database base;
  if (data_path != nullptr) {
    std::string data_error;
    auto loaded = LoadDatabaseFile(data_path, &data_error);
    if (!loaded.has_value()) return Fail(data_error);
    base = std::move(*loaded);
  }

  ViewPlanner planner(views, MaterializeViews(views, base));

  // Warm-start: load the previous run's plan cache. A missing file or a
  // snapshot of a different view set is a clean cold start; only a corrupt
  // file is worth a warning (and still not fatal — we serve cold).
  if (snapshot_path != nullptr) {
    const SnapshotLoadResult load = planner.LoadSnapshot(snapshot_path);
    if (!load.ok()) {
      std::fprintf(stderr, "vbr_server: snapshot not loaded (%s); cold start\n",
                   load.status.error.c_str());
    } else if (!load.compatible) {
      std::fprintf(stderr,
                   "vbr_server: snapshot is for a different view set; "
                   "cold start\n");
    } else {
      std::fprintf(stderr, "vbr_server: warm start, %zu cached plan(s)\n",
                   load.entries_loaded);
    }
  }

  std::shared_ptr<RequestLogWriter> request_log;
  if (request_log_path != nullptr) {
    request_log = std::make_shared<RequestLogWriter>();
    const vbin::Status status =
        request_log->Open(request_log_path, request_log_options);
    if (!status.ok()) return Fail("request log: " + status.error);
    service_options.request_log = request_log;
  }

  PlanningService service(&planner, service_options);
  server::PlanServer server(&service, server_options);
  if (!server.Start(&error)) return Fail("start: " + error);

  std::printf("binary_port=%u\nhttp_port=%u\n", server.binary_port(),
              server.http_port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Periodic snapshot saves, so a crash loses at most one interval of
  // cache warmth. The thread wakes early on shutdown to exit promptly.
  std::mutex saver_mu;
  std::condition_variable saver_cv;
  bool stopping = false;
  std::thread saver;
  if (snapshot_path != nullptr && snapshot_interval_s > 0) {
    saver = std::thread([&] {
      std::unique_lock<std::mutex> lock(saver_mu);
      while (!saver_cv.wait_for(
          lock, std::chrono::duration<double>(snapshot_interval_s),
          [&] { return stopping; })) {
        lock.unlock();
        const vbin::Status status = planner.SaveSnapshot(snapshot_path);
        if (!status.ok()) {
          std::fprintf(stderr, "vbr_server: snapshot save failed: %s\n",
                       status.error.c_str());
        }
        lock.lock();
      }
    });
  }

  g_shutdown.acquire();

  std::fprintf(stderr, "vbr_server: shutting down\n");
  if (drain_grace_ms > 0) {
    // Graceful drain first: stop accepting, flush what's in flight, then
    // Stop() force-closes whatever the grace period didn't cover.
    if (server.Drain(drain_grace_ms)) {
      std::fprintf(stderr, "vbr_server: drained cleanly\n");
    } else {
      std::fprintf(stderr,
                   "vbr_server: drain grace expired with connections open\n");
    }
  }
  server.Stop();
  service.Shutdown();
  if (saver.joinable()) {
    {
      std::lock_guard<std::mutex> lock(saver_mu);
      stopping = true;
    }
    saver_cv.notify_all();
    saver.join();
  }
  // Final save AFTER the drain, so everything planned this run persists.
  if (snapshot_path != nullptr) {
    const vbin::Status status = planner.SaveSnapshot(snapshot_path);
    if (status.ok()) {
      std::fprintf(stderr, "vbr_server: snapshot saved to %s\n",
                   snapshot_path);
    } else {
      std::fprintf(stderr, "vbr_server: final snapshot save failed: %s\n",
                   status.error.c_str());
    }
  }
  if (request_log != nullptr) {
    request_log->Close();
    if (!request_log->error().empty()) {
      std::fprintf(stderr, "vbr_server: request log: %s\n",
                   request_log->error().c_str());
    }
  }
  std::fprintf(stderr, "vbr_server: %s\n",
               service.stats().ToString().c_str());
  return 0;
}
