// Chaos soak: the wire path under seeded socket-fault injection.
//
// The chaos layer (net/chaos_socket.h) sits under both sides of every
// tracked connection — client and server fds alike — and injects short
// reads/writes, spurious EAGAIN, delayed flushes, mid-frame disconnects,
// post-accept resets, and connect failures, all replayable from a seed.
// These tests drive a real PlanServer over loopback through the resilient
// client and hold the line on the invariants chaos must never break:
//
//   - exact accounting: answered + lost == sent, duplicates == 0, for
//     every one of 100+ seeded fault schedules;
//   - byte identity: a plan that survives the chaotic transport is
//     byte-identical to the in-process reference plan for the same query;
//   - no leaked fds: the process's open-fd count is stable across a soak;
//   - torn-tail recovery: a request log torn mid-append (injected crash)
//     replays as an exact prefix, across rotated files, and the replayed
//     prefix plans byte-identically.
#include <dirent.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "cq/rename.h"
#include "cq/substitution.h"
#include "engine/materialize.h"
#include "net/chaos_socket.h"
#include "net/frame.h"
#include "net/load_driver.h"
#include "net/resilient_client.h"
#include "planner/planner.h"
#include "planner/service.h"
#include "planner/snapshot.h"
#include "server/plan_server.h"
#include "workload/data_gen.h"
#include "workload/generator.h"

namespace vbr {
namespace {

using net::ChaosSocket;
using net::WireStatus;

// Chaos is process-global; never leave it on when a test exits early.
struct ChaosGuard {
  ~ChaosGuard() { ChaosSocket::Disable(); }
};

struct SoakFixture {
  Workload workload;
  Database view_db;
  std::unique_ptr<ViewPlanner> served_planner;
  std::unique_ptr<ViewPlanner> reference_planner;
  std::unique_ptr<PlanningService> served;
  std::unique_ptr<PlanningService> reference;
  std::unique_ptr<server::PlanServer> server;

  explicit SoakFixture(uint64_t seed,
                       std::shared_ptr<RequestLogWriter> request_log = {}) {
    WorkloadConfig wc;
    wc.shape = QueryShape::kStar;
    wc.num_query_subgoals = 3;
    wc.num_views = 5;
    wc.seed = seed;
    workload = GenerateWorkload(wc);
    DataConfig dc;
    dc.rows_per_relation = 12;
    dc.domain_size = 5;
    dc.seed = seed + 100;
    const Database base = GenerateBaseData(workload.query, workload.views, dc);
    view_db = MaterializeViews(workload.views, base);
    served_planner = std::make_unique<ViewPlanner>(workload.views, view_db);
    reference_planner = std::make_unique<ViewPlanner>(workload.views, view_db);
    PlanningService::Options service_options;
    service_options.num_workers = 2;
    service_options.request_log = std::move(request_log);
    served = std::make_unique<PlanningService>(served_planner.get(),
                                               service_options);
    PlanningService::Options reference_options;
    reference_options.num_workers = 2;
    reference = std::make_unique<PlanningService>(reference_planner.get(),
                                                  reference_options);
    server = std::make_unique<server::PlanServer>(served.get(),
                                                  server::PlanServerOptions{});
    std::string error;
    if (!server->Start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
    }
  }

  ~SoakFixture() {
    server->Stop();
    served->Shutdown();
    reference->Shutdown();
  }
};

size_t OpenFdCount() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  size_t n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;  // includes ".", "..", and the opendir fd itself — constant bias
}

// Waits until the server has reaped every connection the last run left
// behind (close events are processed asynchronously by the IO thread).
void WaitForQuiescence(server::PlanServer& server) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (server.stats().active_connections == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << "server never quiesced (leaked connections)";
}

// The headline soak: 100 distinct fault schedules, each a short resilient
// run over the chaotic transport.  Every run must account exactly —
// received + lost == sent and zero duplicates — no matter which faults
// the seed picked.
TEST(ChaosSoakTest, HundredSeededSchedulesAccountExactly) {
  SoakFixture fx(31);
  ChaosGuard guard;

  size_t total_lost = 0, total_received = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    ChaosSocket::Enable(seed);
    net::LoadDriverOptions load;
    load.port = fx.server->binary_port();
    load.connections = 2;
    load.total_requests = 10;
    load.queries.push_back(fx.workload.query.ToString());
    load.resilient = true;
    load.resilient_client.connect_timeout_ms = 2000;
    load.resilient_client.request_timeout_ms = 2000;
    net::LoadReport report;
    std::string error;
    const bool ok = net::RunLoad(load, &report, &error);
    ChaosSocket::Disable();
    ASSERT_TRUE(ok) << "seed " << seed << ": " << error;
    EXPECT_EQ(report.sent, load.total_requests) << "seed " << seed;
    EXPECT_EQ(report.received + report.lost, report.sent)
        << "seed " << seed << " lost accounting broke";
    EXPECT_EQ(report.duplicated, 0u) << "seed " << seed;
    EXPECT_EQ(report.decode_errors, 0u) << "seed " << seed;
    total_lost += report.lost;
    total_received += report.received;
  }
  // The resilient client should be riding out nearly everything the chaos
  // profile throws; a mostly-lost soak means retries are broken.
  EXPECT_GT(total_received, total_lost * 10);
  WaitForQuiescence(*fx.server);
}

// Byte identity under chaos: for several seeds, every answered request's
// rewriting/cost/status must equal the in-process reference — a retried
// or reconnected request must never come back subtly different.
TEST(ChaosSoakTest, SurvivingPlansAreByteIdenticalToReference) {
  SoakFixture fx(32);
  ChaosGuard guard;

  // Distinct renamed-apart variants so cache hits cannot mask drift.
  std::vector<ConjunctiveQuery> queries;
  for (size_t i = 0; i < 6; ++i) {
    Substitution renaming;
    queries.push_back(RenameVariablesApart(
        fx.workload.query, "c" + std::to_string(i), &renaming));
  }
  // Reference answers, computed once on the calm in-process path.
  std::vector<PlanningService::PlanResponse> expected;
  for (const ConjunctiveQuery& q : queries) {
    PlanningService::PlanRequest request;
    request.query = q;
    request.options.model = CostModel::kM2;
    expected.push_back(fx.reference->Submit(std::move(request)).get());
    ASSERT_EQ(expected.back().status, PlanningService::ServiceStatus::kOk);
    ASSERT_TRUE(expected.back().result.choice.has_value());
  }

  size_t answered = 0;
  uint64_t next_id = 1;
  for (uint64_t seed = 201; seed <= 212; ++seed) {
    ChaosSocket::Enable(seed);
    net::ResilientClientOptions copts;
    copts.port = fx.server->binary_port();
    copts.backoff_seed = seed;
    net::ResilientClient client(copts);
    for (size_t i = 0; i < queries.size(); ++i) {
      net::PlanRequestFrame request;
      request.request_id = next_id++;
      request.want_certificate = true;
      request.options.model = CostModel::kM2;
      request.query_text = queries[i].ToString();
      net::PlanResponseFrame response;
      std::string error;
      if (!client.Call(request, &response, &error)) continue;  // lost: fine
      ++answered;
      ASSERT_EQ(response.status, WireStatus::kOk)
          << "seed " << seed << ": " << response.error;
      EXPECT_EQ(response.rewriting,
                expected[i].result.choice->logical.ToString());
      EXPECT_EQ(response.certificate,
                expected[i].result.choice->certificate.ToString());
      EXPECT_EQ(response.cost, expected[i].result.choice->cost);
      EXPECT_EQ(response.plan_status,
                static_cast<uint8_t>(expected[i].result.status));
    }
    ChaosSocket::Disable();
  }
  // Losing every single request would vacuously pass the comparisons.
  EXPECT_GT(answered, 0u);
  WaitForQuiescence(*fx.server);
}

// No fd leaks: the open-fd count after a chaotic soak (injected
// disconnects, resets, reconnects) equals the count before it.
TEST(ChaosSoakTest, SoakLeaksNoFileDescriptors) {
  SoakFixture fx(33);
  ChaosGuard guard;

  auto run_one = [&](uint64_t seed) {
    ChaosSocket::Enable(seed);
    net::LoadDriverOptions load;
    load.port = fx.server->binary_port();
    load.connections = 2;
    load.total_requests = 8;
    load.queries.push_back(fx.workload.query.ToString());
    load.resilient = true;
    net::LoadReport report;
    std::string error;
    ASSERT_TRUE(net::RunLoad(load, &report, &error)) << error;
    ChaosSocket::Disable();
  };

  // Warm-up run so lazily-created fds (metrics, planner scratch) exist
  // before the baseline count is taken.
  run_one(1000);
  WaitForQuiescence(*fx.server);
  const size_t before = OpenFdCount();
  ASSERT_GT(before, 0u);
  for (uint64_t seed = 1001; seed <= 1016; ++seed) run_one(seed);
  WaitForQuiescence(*fx.server);
  EXPECT_EQ(OpenFdCount(), before) << "fd count drifted across the soak";
}

// Torn-tail recovery over the wire: requests stream through the server
// into a rotating request log; an injected fault tears the Nth append
// mid-frame (exactly what a crash leaves behind).  The rotated set must
// replay as the EXACT prefix of what was sent, and the replayed prefix
// must plan byte-identically on a fresh service.
TEST(ChaosSoakTest, TornRequestLogReplaysExactPrefixByteIdentically) {
  FaultRegistry::Global().Reset();
  char dir_template[] = "/tmp/vbr_chaos_log_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string log_path = std::string(dir_template) + "/requests.vbin";

  auto log = std::make_shared<RequestLogWriter>();
  RequestLogOptions log_options;
  log_options.max_bytes = 256;  // tiny: forces several rotations
  log_options.keep = 8;
  ASSERT_TRUE(log->Open(log_path, log_options).ok());

  constexpr size_t kTearAt = 10;  // the 10th append dies mid-frame
  FaultRegistry::Global().Arm("persist.request_log.append",
                              FaultKind::kStageAbort, kTearAt);

  std::vector<net::PlanResponseFrame> wire_responses;
  std::vector<ConjunctiveQuery> sent;
  {
    SoakFixture fx(34, log);
    std::vector<ConjunctiveQuery> queries;
    for (size_t i = 0; i < 14; ++i) {
      Substitution renaming;
      queries.push_back(RenameVariablesApart(
          fx.workload.query, "t" + std::to_string(i), &renaming));
    }
    net::ResilientClientOptions copts;
    copts.port = fx.server->binary_port();
    net::ResilientClient client(copts);
    for (size_t i = 0; i < queries.size(); ++i) {
      net::PlanRequestFrame request;
      request.request_id = i + 1;
      request.options.model = CostModel::kM2;
      request.query_text = queries[i].ToString();
      net::PlanResponseFrame response;
      std::string error;
      ASSERT_TRUE(client.Call(request, &response, &error)) << error;
      ASSERT_EQ(response.status, WireStatus::kOk) << response.error;
      wire_responses.push_back(response);
      sent.push_back(queries[i]);
    }
  }
  FaultRegistry::Global().Reset();
  EXPECT_EQ(log->records_written(), kTearAt - 1);
  EXPECT_GT(log->rotations(), 0u);
  EXPECT_FALSE(log->error().empty());  // the injected tear latched
  log->Close();

  // "Restart": read the rotated set back like vbr_cli --replay would.
  std::vector<RequestLogRecord> records;
  size_t truncated = 0;
  ASSERT_TRUE(ReadRequestLogSet(log_path, &records, &truncated).ok());
  EXPECT_GT(truncated, 0u);  // the torn half-frame was dropped, not parsed
  ASSERT_EQ(records.size(), kTearAt - 1);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].query.ToString(), sent[i].ToString())
        << "record " << i << " out of order or corrupted";
  }

  // Replay the prefix on a fresh stack: byte-identical plans.
  SoakFixture replay_fx(34);
  for (size_t i = 0; i < records.size(); ++i) {
    PlanningService::PlanRequest request;
    request.query = records[i].query;
    request.options = records[i].options;
    const auto response = replay_fx.reference->Submit(std::move(request)).get();
    ASSERT_EQ(response.status, PlanningService::ServiceStatus::kOk);
    ASSERT_TRUE(response.result.choice.has_value());
    EXPECT_EQ(response.result.choice->logical.ToString(),
              wire_responses[i].rewriting);
    EXPECT_EQ(response.result.choice->cost, wire_responses[i].cost);
  }

  // Best-effort cleanup of the temp dir (rotated siblings included).
  for (size_t k = 0; k <= log_options.keep; ++k) {
    const std::string p =
        k == 0 ? log_path : log_path + "." + std::to_string(k);
    std::remove(p.c_str());
  }
  ::rmdir(dir_template);
}

}  // namespace
}  // namespace vbr
