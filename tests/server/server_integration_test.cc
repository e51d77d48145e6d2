// PlanServer end to end: real sockets on loopback, concurrent connections,
// hostile clients.
//
// The headline property is BYTE IDENTITY: a plan served over the binary
// protocol must carry exactly the rewriting, certificate, cost, and status
// that an in-process PlanningService::Submit produces for the same query
// against an identically configured planner.  The server is a transport,
// not a second planner — any drift between the two paths is a bug, and
// this test is where it surfaces.
//
// The hostile-client tests cover the rest of the wire contract: slow
// clients dribbling one byte at a time, clients that disconnect while
// their request is still planning (the completion must be dropped, never
// crash or block the IO loop), garbage and oversized frames, and version
// skew.
#include "server/plan_server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "cq/parser.h"
#include "cq/rename.h"
#include "cq/substitution.h"
#include "engine/io.h"
#include "engine/materialize.h"
#include "net/frame.h"
#include "net/load_driver.h"
#include "net/socket.h"
#include "planner/planner.h"
#include "planner/service.h"
#include "workload/data_gen.h"
#include "workload/generator.h"

namespace vbr {
namespace {

using net::DecodeStatus;
using net::WireStatus;

// Two identically configured planner+service stacks over one generated
// workload: `served` sits behind the PlanServer, `reference` is driven
// in-process.  Separate instances (not a shared planner) so the wire path
// cannot accidentally lean on state the in-process path created.
struct ServerFixture {
  Workload workload;
  Database view_db;
  std::unique_ptr<ViewPlanner> served_planner;
  std::unique_ptr<ViewPlanner> reference_planner;
  std::unique_ptr<PlanningService> served;
  std::unique_ptr<PlanningService> reference;
  std::unique_ptr<server::PlanServer> server;

  explicit ServerFixture(uint64_t seed, size_t workers = 2) {
    WorkloadConfig wc;
    wc.shape = QueryShape::kStar;
    wc.num_query_subgoals = 4;
    wc.num_views = 6;
    wc.seed = seed;
    workload = GenerateWorkload(wc);
    DataConfig dc;
    dc.rows_per_relation = 20;
    dc.domain_size = 6;
    dc.seed = seed + 100;
    const Database base = GenerateBaseData(workload.query, workload.views, dc);
    view_db = MaterializeViews(workload.views, base);
    served_planner = std::make_unique<ViewPlanner>(workload.views, view_db);
    reference_planner = std::make_unique<ViewPlanner>(workload.views, view_db);
    PlanningService::Options service_options;
    service_options.num_workers = workers;
    served = std::make_unique<PlanningService>(served_planner.get(),
                                               service_options);
    reference = std::make_unique<PlanningService>(reference_planner.get(),
                                                  service_options);
    server = std::make_unique<server::PlanServer>(served.get(),
                                                  server::PlanServerOptions{});
    std::string error;
    if (!server->Start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
    }
  }

  ~ServerFixture() {
    server->Stop();
    served->Shutdown();
    reference->Shutdown();
  }
};

// Blocking single round trip over an already-open binary connection.
bool RoundTrip(int fd, const net::PlanRequestFrame& request,
               net::PlanResponseFrame* response, std::string* buffer) {
  std::string wire;
  EncodePlanRequest(request, &wire);
  if (!net::WriteAll(fd, wire.data(), wire.size())) return false;
  return [&] {
    char chunk[8192];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      std::string_view payload;
      size_t consumed = 0;
      const DecodeStatus es = net::ExtractFrame(*buffer, net::kDefaultMaxPayload,
                                                &payload, &consumed);
      if (es == DecodeStatus::kOk) {
        const DecodeStatus ds = net::DecodePlanResponse(payload, response);
        buffer->erase(0, consumed);
        return ds == DecodeStatus::kOk;
      }
      if (es != DecodeStatus::kNeedMore) return false;
      const net::IoResult r = net::ReadSome(fd, chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kOk) {
        buffer->append(chunk, r.n);
      } else if (r.status == net::IoStatus::kWouldBlock) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } else {
        return false;
      }
    }
    return false;
  }();
}

TEST(PlanServerTest, WirePlansAreByteIdenticalToInProcessAcrossConnections) {
  ServerFixture fx(21);

  // 24 distinct (renamed-apart) query variants, split over 4 concurrent
  // connections; every variant is also planned in-process.
  constexpr size_t kConnections = 4;
  constexpr size_t kPerConnection = 6;
  std::vector<ConjunctiveQuery> queries;
  for (size_t i = 0; i < kConnections * kPerConnection; ++i) {
    Substitution renaming;
    // Lower-case prefix on purpose: these variables print as ?-escaped
    // names (lower-case identifiers read as constants by convention), so
    // the wire round trip exercises the escape path end to end.
    queries.push_back(RenameVariablesApart(
        fx.workload.query, "w" + std::to_string(i), &renaming));
  }

  std::vector<net::PlanResponseFrame> wire_responses(queries.size());
  // vector<char>, not vector<bool>: each client thread writes its own
  // slots, and vector<bool> would pack neighbouring slots into one word.
  std::vector<char> wire_ok(queries.size(), 0);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      std::string error;
      net::OwnedFd fd =
          net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
      ASSERT_TRUE(fd.valid()) << error;
      std::string buffer;
      for (size_t k = 0; k < kPerConnection; ++k) {
        const size_t index = c * kPerConnection + k;
        net::PlanRequestFrame request;
        request.request_id = index;
        request.want_certificate = true;
        request.options.model = CostModel::kM2;
        request.query_text = queries[index].ToString();
        wire_ok[index] = RoundTrip(fd.get(), request,
                                   &wire_responses[index], &buffer);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(wire_ok[i]) << "wire round trip " << i << " failed";
    PlanningService::PlanRequest in_process;
    in_process.query = queries[i];
    in_process.options.model = CostModel::kM2;
    const auto expected = fx.reference->Submit(std::move(in_process)).get();

    const net::PlanResponseFrame& got = wire_responses[i];
    ASSERT_EQ(expected.status, PlanningService::ServiceStatus::kOk);
    ASSERT_EQ(got.status, WireStatus::kOk) << got.error;
    ASSERT_TRUE(expected.result.ok());
    ASSERT_TRUE(expected.result.choice.has_value());
    EXPECT_EQ(got.plan_status, static_cast<uint8_t>(expected.result.status));
    // Byte identity of the plan and its witness.
    EXPECT_EQ(got.rewriting, expected.result.choice->logical.ToString());
    EXPECT_EQ(got.certificate,
              expected.result.choice->certificate.ToString());
    EXPECT_EQ(got.cost, expected.result.choice->cost);
    EXPECT_EQ(got.request_id, i);
  }

  const auto stats = fx.server->stats();
  EXPECT_EQ(stats.frames_received, queries.size());
  EXPECT_EQ(stats.responses_sent, queries.size());
  EXPECT_EQ(stats.dropped_responses, 0u);
}

TEST(PlanServerTest, SlowClientDribblingBytesStillGetsItsPlan) {
  ServerFixture fx(22);
  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;

  net::PlanRequestFrame request;
  request.request_id = 77;
  request.options.model = CostModel::kM2;
  request.query_text = fx.workload.query.ToString();
  std::string wire;
  EncodePlanRequest(request, &wire);

  // One byte at a time: the server must buffer partial frames across many
  // poll iterations without misparsing or timing the connection out.
  for (const char byte : wire) {
    ASSERT_TRUE(net::WriteAll(fd.get(), &byte, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::string buffer;
  net::PlanResponseFrame got;
  net::PlanRequestFrame probe;  // complete second request, normal speed
  probe.request_id = 78;
  probe.options.model = CostModel::kM2;
  probe.query_text = fx.workload.query.ToString();

  // Read the slow request's response, then round-trip a normal one on the
  // same connection to prove the stream stayed in sync.
  {
    std::string empty_request_buffer;
    char chunk[8192];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool decoded = false;
    while (!decoded && std::chrono::steady_clock::now() < deadline) {
      std::string_view payload;
      size_t consumed = 0;
      if (net::ExtractFrame(buffer, net::kDefaultMaxPayload, &payload,
                            &consumed) == DecodeStatus::kOk) {
        ASSERT_EQ(net::DecodePlanResponse(payload, &got), DecodeStatus::kOk);
        buffer.erase(0, consumed);
        decoded = true;
        break;
      }
      const net::IoResult r = net::ReadSome(fd.get(), chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kOk) {
        buffer.append(chunk, r.n);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_TRUE(decoded);
  }
  EXPECT_EQ(got.request_id, 77u);
  EXPECT_EQ(got.status, WireStatus::kOk) << got.error;
  EXPECT_FALSE(got.rewriting.empty());

  net::PlanResponseFrame second;
  ASSERT_TRUE(RoundTrip(fd.get(), probe, &second, &buffer));
  EXPECT_EQ(second.request_id, 78u);
  EXPECT_EQ(second.status, WireStatus::kOk);
  EXPECT_EQ(second.rewriting, got.rewriting);
}

TEST(PlanServerTest, QueryHandleRoundTripAndUnknownHandle) {
  ServerFixture fx(23);
  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  std::string buffer;

  const std::string text = fx.workload.query.ToString();
  net::PlanRequestFrame by_text;
  by_text.request_id = 1;
  by_text.query_text = text;
  net::PlanResponseFrame first;
  ASSERT_TRUE(RoundTrip(fd.get(), by_text, &first, &buffer));
  ASSERT_EQ(first.status, WireStatus::kOk) << first.error;
  EXPECT_EQ(first.query_handle, net::HashQueryText(text));

  // Resend by fingerprint only: same plan, no query text on the wire.
  net::PlanRequestFrame by_handle;
  by_handle.request_id = 2;
  by_handle.query_is_handle = true;
  by_handle.query_handle = first.query_handle;
  net::PlanResponseFrame second;
  ASSERT_TRUE(RoundTrip(fd.get(), by_handle, &second, &buffer));
  ASSERT_EQ(second.status, WireStatus::kOk) << second.error;
  EXPECT_EQ(second.rewriting, first.rewriting);
  EXPECT_TRUE(second.cache_hit);  // isomorphic resubmission hits the cache

  // A fingerprint the server never issued is answered, not dropped.
  net::PlanRequestFrame bogus;
  bogus.request_id = 3;
  bogus.query_is_handle = true;
  bogus.query_handle = first.query_handle ^ 0xFFFF;
  net::PlanResponseFrame third;
  ASSERT_TRUE(RoundTrip(fd.get(), bogus, &third, &buffer));
  EXPECT_EQ(third.status, WireStatus::kUnknownHandle);
  EXPECT_EQ(third.request_id, 3u);

  const auto stats = fx.server->stats();
  EXPECT_EQ(stats.handle_hits, 1u);
  EXPECT_EQ(stats.handle_misses, 1u);
}

TEST(PlanServerTest, BadFramesGetErrorResponsesAndStreamStaysInSync) {
  ServerFixture fx(24);
  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  std::string buffer;

  // Unparseable query text: kBadRequest, connection stays usable.
  net::PlanRequestFrame bad_query;
  bad_query.request_id = 5;
  bad_query.query_text = "this is not datalog";
  net::PlanResponseFrame response;
  ASSERT_TRUE(RoundTrip(fd.get(), bad_query, &response, &buffer));
  EXPECT_EQ(response.status, WireStatus::kBadRequest);
  EXPECT_EQ(response.request_id, 5u);
  EXPECT_FALSE(response.error.empty());

  // Version-skewed frame: kUnsupportedVersion with the id echoed back.
  net::PlanRequestFrame skewed;
  skewed.request_id = 6;
  skewed.query_text = fx.workload.query.ToString();
  std::string wire;
  EncodePlanRequest(skewed, &wire);
  wire[4] = static_cast<char>(net::kProtocolVersion + 1);
  ASSERT_TRUE(net::WriteAll(fd.get(), wire.data(), wire.size()));
  {
    net::PlanRequestFrame good;
    good.request_id = 7;
    good.query_text = fx.workload.query.ToString();
    net::PlanResponseFrame skew_response;
    ASSERT_TRUE(RoundTrip(fd.get(), good, &skew_response, &buffer));
    // Responses arrive in order: first the skew error, then the good plan.
    EXPECT_EQ(skew_response.status, WireStatus::kUnsupportedVersion);
    EXPECT_EQ(skew_response.request_id, 6u);
    net::PlanResponseFrame good_response;
    char chunk[8192];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool decoded = false;
    while (!decoded && std::chrono::steady_clock::now() < deadline) {
      std::string_view payload;
      size_t consumed = 0;
      if (net::ExtractFrame(buffer, net::kDefaultMaxPayload, &payload,
                            &consumed) == DecodeStatus::kOk) {
        ASSERT_EQ(net::DecodePlanResponse(payload, &good_response),
                  DecodeStatus::kOk);
        buffer.erase(0, consumed);
        decoded = true;
        break;
      }
      const net::IoResult r = net::ReadSome(fd.get(), chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kOk) {
        buffer.append(chunk, r.n);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_TRUE(decoded);
    EXPECT_EQ(good_response.status, WireStatus::kOk);
    EXPECT_EQ(good_response.request_id, 7u);
  }

  // An oversized length prefix kills the connection (unrecoverable).
  const uint32_t huge = net::kDefaultMaxPayload + 1;
  ASSERT_TRUE(net::WriteAll(fd.get(), &huge, sizeof(huge)));
  char scratch[64];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool closed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const net::IoResult r = net::ReadSome(fd.get(), scratch, sizeof(scratch));
    if (r.status == net::IoStatus::kEof || r.status == net::IoStatus::kError) {
      closed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(closed);
  EXPECT_GE(fx.server->stats().bad_frames, 2u);
}

// A trace sink that parks the worker emitting a span until Open(). Set as
// an in-process PlanRequest::trace, it holds a one-worker service
// mid-request while the test acts on the wire.
class WorkerGate : public TraceSink {
 public:
  void OnSpanEnd(TraceEvent) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

// A client that vanishes while its request is still in flight: the
// completion must be counted as dropped, and the server must keep serving
// other connections.
TEST(PlanServerTest, DisconnectMidPlanDropsTheResponseAndNothingElse) {
  WorkloadConfig wc;
  wc.shape = QueryShape::kStar;
  wc.num_query_subgoals = 4;
  wc.num_views = 6;
  wc.seed = 31;
  Workload workload = GenerateWorkload(wc);
  DataConfig dc;
  dc.rows_per_relation = 20;
  dc.domain_size = 6;
  dc.seed = 131;
  const Database base = GenerateBaseData(workload.query, workload.views, dc);
  ViewPlanner planner(workload.views, MaterializeViews(workload.views, base));

  // One worker, parked by an in-process request's trace sink, so the
  // doomed connection's request is admitted and waiting behind it.
  PlanningService::Options service_options;
  service_options.num_workers = 1;
  PlanningService service(&planner, service_options);
  server::PlanServer server(&service, server::PlanServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  WorkerGate gate;
  PlanningService::PlanRequest blocker;
  blocker.query = workload.query;
  blocker.options.model = CostModel::kM2;
  blocker.trace = &gate;
  auto blocker_future = service.Submit(std::move(blocker));
  gate.AwaitEntered();
  {
    net::OwnedFd doomed =
        net::ConnectTcp("127.0.0.1", server.binary_port(), &error);
    ASSERT_TRUE(doomed.valid()) << error;
    net::PlanRequestFrame request;
    request.request_id = 99;
    request.options.model = CostModel::kM2;
    request.query_text = workload.query.ToString();
    std::string wire;
    EncodePlanRequest(request, &wire);
    ASSERT_TRUE(net::WriteAll(doomed.get(), wire.data(), wire.size()));
    // Wait until the service has admitted this request, then vanish
    // without reading the response.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.stats().admitted < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(service.stats().admitted, 2u);
  }  // doomed connection closes here

  // Give the IO thread a moment to observe the hangup, then release the
  // worker so the doomed plan completes into a missing connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Open();
  EXPECT_EQ(blocker_future.get().status, PlanningService::ServiceStatus::kOk);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().dropped_responses == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().dropped_responses, 1u);

  // The server is still fully functional for a fresh connection.
  net::OwnedFd fd = net::ConnectTcp("127.0.0.1", server.binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  std::string buffer;
  net::PlanRequestFrame request;
  request.request_id = 100;
  request.options.model = CostModel::kM2;
  request.query_text = workload.query.ToString();
  net::PlanResponseFrame response;
  ASSERT_TRUE(RoundTrip(fd.get(), request, &response, &buffer));
  EXPECT_EQ(response.status, WireStatus::kOk) << response.error;

  server.Stop();
  service.Shutdown();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_EQ(stats.admitted, stats.completed + stats.shed);
}

// The 22-subgoal chain q(X0..X22) :- e(X0,X1), ..., e(X21,X22) over
// v(A,B) :- e(A,B): its one rewriting has 22 subgoals, two more than the M2
// join-order search takes. Under M2/M3 it must come back as a
// kUnsupportedQueryTooLarge answer, and the server must keep serving.
struct WideChainServer {
  static constexpr size_t kLinks = 22;
  std::unique_ptr<ViewPlanner> planner;
  std::unique_ptr<PlanningService> service;
  std::unique_ptr<server::PlanServer> server;

  WideChainServer() {
    const ViewSet views = MustParseProgram("v(A,B) :- e(A,B).");
    const std::optional<Database> base =
        ParseDatabase("e(1,2). e(2,3). e(3,1).");
    planner = std::make_unique<ViewPlanner>(views,
                                            MaterializeViews(views, *base));
    service = std::make_unique<PlanningService>(planner.get(),
                                                PlanningService::Options{});
    server = std::make_unique<server::PlanServer>(service.get(),
                                                  server::PlanServerOptions{});
    std::string error;
    if (!server->Start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
    }
  }
  ~WideChainServer() {
    server->Stop();
    service->Shutdown();
  }

  static std::string ChainText(size_t links) {
    std::string head = "q(X0";
    std::string body;
    for (size_t i = 0; i < links; ++i) {
      head += ",X" + std::to_string(i + 1);
      if (i > 0) body += ", ";
      body += "e(X" + std::to_string(i) + ",X" + std::to_string(i + 1) + ")";
    }
    return head + ") :- " + body;
  }
};

// Sends one HTTP request on a fresh connection that the server closes
// after responding, and returns everything it wrote back.
std::string HttpExchange(uint16_t port, const std::string& request) {
  std::string error;
  net::OwnedFd fd = net::ConnectTcp("127.0.0.1", port, &error);
  if (!fd.valid() || !net::WriteAll(fd.get(), request.data(), request.size())) {
    ADD_FAILURE() << "http connect/write failed: " << error;
    return "";
  }
  std::string response;
  char chunk[8192];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const net::IoResult r = net::ReadSome(fd.get(), chunk, sizeof(chunk));
    if (r.status == net::IoStatus::kOk) {
      response.append(chunk, r.n);
    } else if (r.status == net::IoStatus::kWouldBlock) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else {
      break;
    }
  }
  return response;
}

std::string HttpPlanRequest(const std::string& query, const char* model) {
  const std::string body = "{\"query\":\"" + query +
                           "\",\"options\":{\"model\":\"" + model + "\"}}";
  return "POST /plan HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(PlanServerTest, ChainTooWideToCostIsAnUnsupportedStatusOverBinary) {
  WideChainServer fx;
  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  std::string buffer;
  for (const CostModel model : {CostModel::kM2, CostModel::kM3}) {
    net::PlanRequestFrame request;
    request.request_id = 1;
    request.options.model = model;
    request.query_text = WideChainServer::ChainText(WideChainServer::kLinks);
    net::PlanResponseFrame response;
    ASSERT_TRUE(RoundTrip(fd.get(), request, &response, &buffer));
    EXPECT_EQ(response.status, WireStatus::kOk) << response.error;
    EXPECT_EQ(response.plan_status,
              static_cast<uint8_t>(PlanStatus::kUnsupportedQueryTooLarge));
    EXPECT_NE(response.error.find("20 subgoals"), std::string::npos)
        << response.error;
    EXPECT_TRUE(response.rewriting.empty());
  }

  // The same connection keeps serving: a short chain plans under M2.
  net::PlanRequestFrame request;
  request.request_id = 2;
  request.options.model = CostModel::kM2;
  request.query_text = WideChainServer::ChainText(3);
  net::PlanResponseFrame response;
  ASSERT_TRUE(RoundTrip(fd.get(), request, &response, &buffer));
  EXPECT_EQ(response.status, WireStatus::kOk) << response.error;
  EXPECT_EQ(response.plan_status, static_cast<uint8_t>(PlanStatus::kOk));
  EXPECT_FALSE(response.rewriting.empty());
}

TEST(PlanServerTest, ChainTooWideToCostIsAnUnsupportedStatusOverHttp) {
  WideChainServer fx;
  const std::string wide = HttpExchange(
      fx.server->http_port(),
      HttpPlanRequest(WideChainServer::ChainText(WideChainServer::kLinks),
                      "m2"));
  EXPECT_NE(wide.find("HTTP/1.1 200"), std::string::npos) << wide;
  EXPECT_NE(wide.find("\"status\":\"unsupported query (too large)\""),
            std::string::npos)
      << wide;
  EXPECT_NE(wide.find("20 subgoals"), std::string::npos) << wide;

  const std::string narrow = HttpExchange(
      fx.server->http_port(),
      HttpPlanRequest(WideChainServer::ChainText(3), "m2"));
  EXPECT_NE(narrow.find("HTTP/1.1 200"), std::string::npos) << narrow;
  EXPECT_NE(narrow.find("\"status\":\"ok\""), std::string::npos) << narrow;
}

// GET /explain plans under the same service budget cap as every /plan: a
// one-unit work cap must show up as an exhausted budget in its JSON.
TEST(PlanServerTest, ExplainRunsUnderTheServiceBudgetCap) {
  const ViewSet views = MustParseProgram("v(A,B) :- e(A,B).");
  const std::optional<Database> base = ParseDatabase("e(1,2). e(2,3).");
  ViewPlanner planner(views, MaterializeViews(views, *base));
  PlanningService::Options service_options;
  service_options.budget.work_limit = 1;
  PlanningService service(&planner, service_options);
  server::PlanServer server(&service, server::PlanServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  const std::string response = HttpExchange(
      server.http_port(),
      "GET /explain?q=q(X0,X2)%20:-%20e(X0,X1),%20e(X1,X2)&model=m2 "
      "HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  server.Stop();
  service.Shutdown();
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_NE(response.find("\"budget\":{\"exhausted\":true"),
            std::string::npos)
      << response;
}

TEST(PlanServerTest, LoadDriverFloodLosesNothing) {
  ServerFixture fx(25);
  net::LoadDriverOptions load;
  load.port = fx.server->binary_port();
  load.connections = 4;
  load.qps = 0;  // flood
  load.total_requests = 400;
  load.queries = {fx.workload.query.ToString()};
  load.request.model = CostModel::kM2;
  net::LoadReport report;
  std::string error;
  ASSERT_TRUE(net::RunLoad(load, &report, &error)) << error;
  EXPECT_EQ(report.sent, 400u);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.duplicated, 0u);
  EXPECT_EQ(report.decode_errors, 0u);
  // Every response is one of the service dispositions; under flood some
  // may be shed or rejected, but all are answered.
  EXPECT_EQ(report.received,
            report.by_status[0] + report.by_status[1] + report.by_status[2]);

  // Accounting holds at the service once the driver has drained.
  const auto stats = fx.served->stats();
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_EQ(stats.admitted, stats.completed + stats.shed);
}

// HTTP "Connection: close" on /plan: the completion flush closes the
// connection from inside DrainCompletions, where the ownership maps hold
// the only references — regression test for a use-after-free in CloseConn.
TEST(PlanServerTest, HttpConnectionCloseAfterPlanFlushStaysClean) {
  ServerFixture fx(27);
  std::string error;
  const std::string body = "{\"query\":\"" + fx.workload.query.ToString() +
                           "\",\"options\":{\"model\":\"m2\"}}";
  const std::string request =
      "POST /plan HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  for (int round = 0; round < 3; ++round) {
    net::OwnedFd fd =
        net::ConnectTcp("127.0.0.1", fx.server->http_port(), &error);
    ASSERT_TRUE(fd.valid()) << error;
    ASSERT_TRUE(net::WriteAll(fd.get(), request.data(), request.size()));
    // The server must deliver the full response, then close the socket.
    std::string response;
    char chunk[8192];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool eof = false;
    while (!eof && std::chrono::steady_clock::now() < deadline) {
      const net::IoResult r = net::ReadSome(fd.get(), chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kOk) {
        response.append(chunk, r.n);
      } else if (r.status == net::IoStatus::kWouldBlock) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } else {
        eof = r.status == net::IoStatus::kEof;
        break;
      }
    }
    ASSERT_TRUE(eof) << "server did not close after flushing round " << round;
    EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
    EXPECT_NE(response.find("Connection: close"), std::string::npos);
    EXPECT_NE(response.find("\"service_status\":\"ok\""), std::string::npos);
  }
  EXPECT_EQ(fx.server->stats().active_connections, 0u);
}

TEST(PlanServerTest, HttpPlanAndHealthEndpointsAnswerOverRawSockets) {
  ServerFixture fx(26);
  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->http_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;

  auto http_round_trip = [&fd](const std::string& request_text,
                               std::string* response_out) {
    if (!net::WriteAll(fd.get(), request_text.data(), request_text.size())) {
      return false;
    }
    std::string response;
    char chunk[8192];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      // A complete response has headers plus the declared body length.
      const size_t body_at = response.find("\r\n\r\n");
      if (body_at != std::string::npos) {
        const size_t content_at = response.find("Content-Length: ");
        if (content_at != std::string::npos && content_at < body_at) {
          const size_t len = static_cast<size_t>(
              std::atoll(response.c_str() + content_at + 16));
          if (response.size() >= body_at + 4 + len) {
            *response_out = response;
            return true;
          }
        }
      }
      const net::IoResult r = net::ReadSome(fd.get(), chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kOk) {
        response.append(chunk, r.n);
      } else if (r.status == net::IoStatus::kWouldBlock) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } else {
        return false;
      }
    }
    return false;
  };

  std::string response;
  ASSERT_TRUE(http_round_trip(
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", &response));
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);

  const std::string body = "{\"query\":\"" + fx.workload.query.ToString() +
                           "\",\"options\":{\"model\":\"m2\"}}";
  response.clear();
  ASSERT_TRUE(http_round_trip(
      "POST /plan HTTP/1.1\r\nHost: t\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body,
      &response));
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("\"service_status\":\"ok\""), std::string::npos);

  // Same connection (keep-alive), a malformed body answers 400.
  response.clear();
  ASSERT_TRUE(http_round_trip(
      "POST /plan HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\nxxx",
      &response));
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
}


// Queries the planner does not take. Both used to abort the server process
// (CoreCover's comparison-free check, minimization's safety check).
constexpr const char* kComparisonQuery = "q(X) :- p(X,Y), X < 3";
constexpr const char* kUnsafeQuery = "q(X,Z) :- p(X,Y)";

void ExpectHealthy(uint16_t http_port) {
  const std::string health = HttpExchange(
      http_port,
      "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200"), std::string::npos) << health;
}

TEST(PlanServerTest, UnsafeAndComparisonQueriesAreBadRequestsOverBinary) {
  ServerFixture fx(28);
  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  std::string buffer;
  uint64_t id = 0;
  for (const char* text : {kComparisonQuery, kUnsafeQuery}) {
    net::PlanRequestFrame request;
    request.request_id = ++id;
    request.options.model = CostModel::kM2;
    request.query_text = text;
    net::PlanResponseFrame response;
    ASSERT_TRUE(RoundTrip(fd.get(), request, &response, &buffer)) << text;
    EXPECT_EQ(response.status, WireStatus::kBadRequest) << text;
    EXPECT_EQ(response.request_id, id);
    EXPECT_FALSE(response.error.empty());
  }
  // The connection stays in sync and keeps planning.
  net::PlanRequestFrame good;
  good.request_id = ++id;
  good.options.model = CostModel::kM2;
  good.query_text = fx.workload.query.ToString();
  net::PlanResponseFrame response;
  ASSERT_TRUE(RoundTrip(fd.get(), good, &response, &buffer));
  EXPECT_EQ(response.status, WireStatus::kOk) << response.error;
  ExpectHealthy(fx.server->http_port());
}

TEST(PlanServerTest, UnsafeAndComparisonQueriesAreBadRequestsOverHttpPlan) {
  ServerFixture fx(29);
  for (const char* text : {kComparisonQuery, kUnsafeQuery}) {
    const std::string response =
        HttpExchange(fx.server->http_port(), HttpPlanRequest(text, "m2"));
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  }
  ExpectHealthy(fx.server->http_port());
}

TEST(PlanServerTest, UnsafeAndComparisonQueriesAreBadRequestsOverExplain) {
  ServerFixture fx(30);
  for (const char* encoded : {"q(X)%20:-%20p(X,Y),%20X%20%3C%203",
                              "q(X,Z)%20:-%20p(X,Y)"}) {
    const std::string response = HttpExchange(
        fx.server->http_port(),
        std::string("GET /explain?q=") + encoded +
            "&model=m2 HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  }
  ExpectHealthy(fx.server->http_port());
}

// A self-join chain whose only CoreCover rewriting, v0(X1,X4), v7(X0,X2),
// is not equivalent to the query: the two tuple-cores overlap on
// p0(X1,X2), each mapping one of its variables to an existential. The
// planner must drop the candidate that fails certification and answer "no
// rewriting", in process and over the wire, on fresh and cached plans.
struct UncertifiableChain {
  static constexpr const char* kQuery =
      "q(X0,X4) :- p1(X0,X1), p0(X1,X2), p1(X2,X3), p1(X3,X4)";
  ViewSet views = MustParseProgram(
      "v0(B0,B3) :- p0(B0,B1), p1(B1,B2), p1(B2,B3).\n"
      "v7(B0,B2) :- p1(B0,B1), p0(B1,B2).");
  Database view_db =
      MaterializeViews(views, *ParseDatabase("p0(1,2). p1(2,3). p1(3,1)."));
};

TEST(PlanServerTest, UncertifiableChainIsNoRewritingInProcess) {
  const UncertifiableChain fx;
  ViewPlanner planner(fx.views, fx.view_db);
  const ConjunctiveQuery query = MustParseQuery(UncertifiableChain::kQuery);
  for (const CostModel model :
       {CostModel::kM1, CostModel::kM2, CostModel::kM3}) {
    for (const bool cached : {false, true}) {
      const ViewPlanner::PlanResult result = planner.Plan(query, model);
      EXPECT_EQ(result.status, PlanStatus::kNoRewriting)
          << CostModelName(model);
      EXPECT_EQ(result.cache_hit, cached);
      EXPECT_NE(result.error.find("failed certification"), std::string::npos)
          << result.error;
    }
    PlanRequestOptions request;
    request.model = model;
    const ViewPlanner::PlanExplanation explain =
        planner.Explain(query, request);
    EXPECT_EQ(explain.status, PlanStatus::kNoRewriting);
    ASSERT_FALSE(explain.candidates.empty());
    for (const auto& candidate : explain.candidates) {
      EXPECT_FALSE(candidate.chosen);
      EXPECT_EQ(candidate.reason, "failed certification");
    }
  }
}

TEST(PlanServerTest, UncertifiableChainIsNoRewritingOverHttp) {
  const UncertifiableChain fx;
  ViewPlanner planner(fx.views, fx.view_db);
  PlanningService service(&planner, PlanningService::Options{});
  server::PlanServer server(&service, server::PlanServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  for (const char* model : {"m1", "m2", "m3"}) {
    const std::string response = HttpExchange(
        server.http_port(),
        HttpPlanRequest(UncertifiableChain::kQuery, model));
    EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
    EXPECT_NE(response.find("\"status\":\"no equivalent rewriting\""),
              std::string::npos)
        << response;
  }
  const std::string metrics = HttpExchange(
      server.http_port(),
      "GET /metricz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_NE(metrics.find("planner.uncertified_dropped"), std::string::npos)
      << metrics;
  // Costing the M2/M3 candidates went through the snapshot's memo.
  EXPECT_NE(metrics.find("cost.memo_hits"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("cost.memo_misses"), std::string::npos) << metrics;
  ExpectHealthy(server.http_port());
  server.Stop();
  service.Shutdown();
}

}  // namespace
}  // namespace vbr
