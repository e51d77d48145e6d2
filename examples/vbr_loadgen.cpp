// vbr_loadgen — open-loop load generator for vbr_server's binary protocol.
//
// Drives N concurrent connections at an aggregate --qps offered rate (0 =
// flood) against a running vbr_server, using the shared open-loop driver
// (net/load_driver.h): the send schedule is absolute, so a saturated
// server shows up as queueing latency and shed responses, not as a quietly
// reduced offered rate.  Request ids are globally unique and every
// response is matched back, so lost and duplicated responses are detected
// exactly — either makes the run fail.
//
// With --check-statz the run ends by fetching /statz from the server's
// HTTP port and verifying the service accounting invariants
//   submitted == admitted + rejected
//   admitted  == completed + shed
// which is what the CI smoke job asserts end to end over the wire.
//
// With --handles the driver reuses server-issued query handles: after a
// query's first response, later requests for it send the 8-byte handle
// instead of the text, and every handle-path response is byte-compared
// against the stored text-path response (a divergence fails the run).
//
// With --chaos SEED the run switches to the closed-loop resilient driver
// and enables the seeded socket chaos layer (net/chaos_socket.h) for the
// client side: injected short reads/writes, spurious EAGAIN, delayed
// flushes, disconnects, and connect failures, all replayable from the
// seed.  Duplicates still fail the run; losses are tolerated (a request
// whose retry budget ran out) but reported.  --resilient alone uses the
// resilient driver without injecting faults.
//
// Usage:
//   vbr_loadgen --port P --queries FILE [--connections N] [--qps Q]
//               [--requests N] [--deadline-ms MS] [--model m1|m2|m3]
//               [--options JSON] [--certificate] [--handles] [--host H]
//               [--check-statz HTTP_PORT] [--chaos SEED] [--resilient]
//
// Exit status: 0 on a clean run, 1 on setup errors, 2 on lost/duplicated
// responses, 3 on an accounting violation, 4 on a handle-path divergence.

#include <poll.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "cq/parser.h"
#include "net/chaos_socket.h"
#include "net/http.h"
#include "net/load_driver.h"
#include "net/socket.h"
#include "planner/request_options.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "vbr_loadgen: %s\n", message.c_str());
  return 1;
}

// Fetches /statz over a short-lived HTTP/1.0-style connection and returns
// the response body, or nullopt.
std::optional<std::string> FetchStatz(const std::string& host, uint16_t port,
                                      std::string* error) {
  vbr::net::OwnedFd fd = vbr::net::ConnectTcp(host, port, error);
  if (!fd.valid()) return std::nullopt;
  const std::string request =
      "GET /statz HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n";
  if (!vbr::net::WriteAll(fd.get(), request.data(), request.size())) {
    if (error != nullptr) *error = "write /statz request failed";
    return std::nullopt;
  }
  std::string response;
  char chunk[4096];
  while (true) {
    const vbr::net::IoResult r =
        vbr::net::ReadSome(fd.get(), chunk, sizeof(chunk));
    if (r.status == vbr::net::IoStatus::kOk) {
      response.append(chunk, r.n);
      continue;
    }
    if (r.status == vbr::net::IoStatus::kWouldBlock) {
      pollfd pfd{fd.get(), POLLIN, 0};
      ::poll(&pfd, 1, 1000);
      continue;
    }
    break;  // EOF: server honoured Connection: close
  }
  const size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos) {
    if (error != nullptr) *error = "malformed /statz response";
    return std::nullopt;
  }
  return response.substr(body_at + 4);
}

uint64_t StatOr0(const vbr::JsonValue& object, const char* key) {
  const vbr::JsonValue* member = object.Get(key);
  return member != nullptr && member->is_number()
             ? static_cast<uint64_t>(member->number_value())
             : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vbr;

  net::LoadDriverOptions load;
  const char* queries_path = nullptr;
  int statz_port = -1;
  bool chaos = false;
  uint64_t chaos_seed = 0;
  for (int i = 1; i < argc; ++i) {
    auto NeedsValue = [&](const char* flag) -> const char* {
      if (++i >= argc) {
        std::fprintf(stderr, "vbr_loadgen: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      load.port = static_cast<uint16_t>(std::atoi(NeedsValue("--port")));
    } else if (std::strcmp(argv[i], "--host") == 0) {
      load.host = NeedsValue("--host");
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      load.connections =
          static_cast<size_t>(std::atoi(NeedsValue("--connections")));
    } else if (std::strcmp(argv[i], "--qps") == 0) {
      load.qps = std::atof(NeedsValue("--qps"));
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      load.total_requests =
          static_cast<size_t>(std::atoi(NeedsValue("--requests")));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      load.request.deadline_ms = std::atof(NeedsValue("--deadline-ms"));
    } else if (std::strcmp(argv[i], "--model") == 0) {
      if (!CostModelFromName(NeedsValue("--model"), &load.request.model)) {
        return Fail("--model needs m1, m2, or m3");
      }
    } else if (std::strcmp(argv[i], "--options") == 0) {
      std::string error;
      const auto parsed =
          PlanRequestOptions::FromJsonText(NeedsValue("--options"), &error);
      if (!parsed.has_value()) return Fail("--options: " + error);
      load.request = *parsed;
    } else if (std::strcmp(argv[i], "--certificate") == 0) {
      load.want_certificate = true;
    } else if (std::strcmp(argv[i], "--handles") == 0) {
      load.use_handles = true;
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      queries_path = NeedsValue("--queries");
    } else if (std::strcmp(argv[i], "--check-statz") == 0) {
      statz_port = std::atoi(NeedsValue("--check-statz"));
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
      load.resilient = true;
      chaos_seed = std::strtoull(NeedsValue("--chaos"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--resilient") == 0) {
      load.resilient = true;
    } else {
      return Fail(std::string("unknown flag ") + argv[i]);
    }
  }
  if (load.port == 0) return Fail("--port is required");
  if (queries_path == nullptr) return Fail("--queries is required");

  std::ifstream in(queries_path);
  if (!in) return Fail(std::string("cannot open ") + queries_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  // Parse once locally to reject malformed files with a good error, but
  // put the raw text on the wire (the server parses authoritatively).
  const auto parsed = ParseProgram(buffer.str(), &error);
  if (!parsed.has_value()) return Fail("queries parse error: " + error);
  if (parsed->empty()) return Fail("queries file has no rules");
  for (const ConjunctiveQuery& q : *parsed) {
    load.queries.push_back(q.ToString());
  }

  if (chaos) net::ChaosSocket::Enable(chaos_seed);
  net::LoadReport report;
  const bool load_ok = net::RunLoad(load, &report, &error);
  if (chaos) {
    // Disable before the /statz fetch: that check must see a calm network.
    const net::ChaosSocket::Stats cs = net::ChaosSocket::stats();
    net::ChaosSocket::Disable();
    std::printf(
        "chaos: seed=%llu short_r=%llu short_w=%llu eagain_r=%llu "
        "eagain_w=%llu delays=%llu disc_r=%llu disc_w=%llu resets=%llu "
        "connect_fail=%llu\n",
        static_cast<unsigned long long>(chaos_seed),
        static_cast<unsigned long long>(cs.short_reads),
        static_cast<unsigned long long>(cs.short_writes),
        static_cast<unsigned long long>(cs.read_eagains),
        static_cast<unsigned long long>(cs.write_eagains),
        static_cast<unsigned long long>(cs.write_delays),
        static_cast<unsigned long long>(cs.read_disconnects),
        static_cast<unsigned long long>(cs.write_disconnects),
        static_cast<unsigned long long>(cs.accept_resets),
        static_cast<unsigned long long>(cs.connect_failures));
  }
  if (!load_ok) return Fail(error);
  std::printf("%s\n", report.ToString().c_str());

  int exit_code = 0;
  // Under chaos a request can exhaust its retry budget: losses are
  // reported but tolerated.  Duplicates never are.
  if ((report.lost != 0 && !chaos) || report.duplicated != 0 ||
      report.decode_errors != 0) {
    std::fprintf(stderr,
                 "vbr_loadgen: FAIL lost=%zu duplicated=%zu decode_errors=%zu"
                 " (every request must be answered exactly once)\n",
                 report.lost, report.duplicated, report.decode_errors);
    exit_code = 2;
  }
  if (report.handle_mismatches != 0) {
    std::fprintf(stderr,
                 "vbr_loadgen: FAIL handle_mismatches=%zu (handle-path "
                 "responses must be byte-identical to the text path)\n",
                 report.handle_mismatches);
    exit_code = 4;
  }

  if (statz_port >= 0) {
    const auto body =
        FetchStatz(load.host, static_cast<uint16_t>(statz_port), &error);
    if (!body.has_value()) return Fail("statz: " + error);
    const auto statz = ParseJson(*body, &error);
    if (!statz.has_value() || !statz->is_object()) {
      return Fail("statz: unparseable JSON: " + error);
    }
    const JsonValue* service = statz->Get("service");
    if (service == nullptr || !service->is_object()) {
      return Fail("statz: missing \"service\" object");
    }
    const uint64_t submitted = StatOr0(*service, "submitted");
    const uint64_t admitted = StatOr0(*service, "admitted");
    const uint64_t rejected = StatOr0(*service, "rejected");
    const uint64_t completed = StatOr0(*service, "completed");
    const uint64_t shed = StatOr0(*service, "shed");
    std::printf(
        "statz: submitted=%llu admitted=%llu rejected=%llu completed=%llu "
        "shed=%llu\n",
        static_cast<unsigned long long>(submitted),
        static_cast<unsigned long long>(admitted),
        static_cast<unsigned long long>(rejected),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(shed));
    if (submitted != admitted + rejected) {
      std::fprintf(stderr,
                   "vbr_loadgen: FAIL accounting: submitted != admitted + "
                   "rejected\n");
      exit_code = 3;
    }
    // The in-flight-free check only holds once the queue is drained; the
    // loadgen has received every response it will get, so any remaining
    // difference means requests are still in flight (shutdown-shed later)
    // — tolerate in-flight but never over-count.
    if (completed + shed > admitted) {
      std::fprintf(stderr,
                   "vbr_loadgen: FAIL accounting: completed + shed > "
                   "admitted\n");
      exit_code = 3;
    }
  }
  return exit_code;
}
