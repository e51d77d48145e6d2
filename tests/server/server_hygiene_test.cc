// Connection hygiene: the PlanServer's defenses against clients that are
// slow, stuck, or simply too many — and its graceful-drain protocol.
//
// Each limit gets its own test: idle eviction (a connection doing nothing
// is reaped), the connection cap in both modes (accept-backpressure by
// default, accept-and-close with reject_over_capacity), slowloris
// eviction (a client dribbling a request byte-by-byte without completing
// one), write-stall eviction (a peer that stopped reading its responses),
// the write-stall histogram surfacing in /metricz, and Drain() flushing
// in-flight work before closing.
#include "server/plan_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/materialize.h"
#include "net/frame.h"
#include "net/socket.h"
#include "planner/planner.h"
#include "planner/service.h"
#include "workload/data_gen.h"
#include "workload/generator.h"

namespace vbr {
namespace {

using net::DecodeStatus;
using net::WireStatus;

struct HygieneFixture {
  Workload workload;
  Database view_db;
  std::unique_ptr<ViewPlanner> planner;
  std::unique_ptr<PlanningService> service;
  std::unique_ptr<server::PlanServer> server;

  explicit HygieneFixture(const server::PlanServerOptions& options,
                          uint64_t seed = 41) {
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
    planner = std::make_unique<ViewPlanner>(workload.views, view_db);
    PlanningService::Options service_options;
    service_options.num_workers = 2;
    service = std::make_unique<PlanningService>(planner.get(),
                                                service_options);
    server = std::make_unique<server::PlanServer>(service.get(), options);
    std::string error;
    if (!server->Start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
    }
  }

  ~HygieneFixture() {
    server->Stop();
    service->Shutdown();
  }
};

// Reads until EOF or error; true iff the peer closed the connection
// within `timeout`.
bool ReadUntilEof(int fd, std::chrono::milliseconds timeout,
                  std::string* received = nullptr) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  char chunk[4096];
  while (std::chrono::steady_clock::now() < deadline) {
    const net::IoResult r = net::ReadSome(fd, chunk, sizeof(chunk));
    if (r.status == net::IoStatus::kOk) {
      if (received != nullptr) received->append(chunk, r.n);
      continue;
    }
    if (r.status == net::IoStatus::kWouldBlock) {
      pollfd pfd{fd, POLLIN, 0};
      ::poll(&pfd, 1, 20);
      continue;
    }
    return true;  // EOF or reset: the server cut us loose
  }
  return false;
}

// One blocking round trip; false on timeout/decode failure.
bool RoundTrip(int fd, const net::PlanRequestFrame& request,
               net::PlanResponseFrame* response,
               std::chrono::milliseconds timeout =
                   std::chrono::milliseconds(10000)) {
  std::string wire;
  EncodePlanRequest(request, &wire);
  if (!net::WriteAll(fd, wire.data(), wire.size())) return false;
  std::string buffer;
  char chunk[8192];
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    std::string_view payload;
    size_t consumed = 0;
    const DecodeStatus es = net::ExtractFrame(buffer, net::kDefaultMaxPayload,
                                              &payload, &consumed);
    if (es == DecodeStatus::kOk) {
      const bool ok =
          net::DecodePlanResponse(payload, response) == DecodeStatus::kOk;
      buffer.erase(0, consumed);
      return ok;
    }
    if (es != DecodeStatus::kNeedMore) return false;
    const net::IoResult r = net::ReadSome(fd, chunk, sizeof(chunk));
    if (r.status == net::IoStatus::kOk) {
      buffer.append(chunk, r.n);
    } else if (r.status == net::IoStatus::kWouldBlock) {
      pollfd pfd{fd, POLLIN, 0};
      ::poll(&pfd, 1, 20);
    } else {
      return false;
    }
  }
  return false;
}

TEST(ServerHygieneTest, IdleConnectionIsEvicted) {
  server::PlanServerOptions options;
  options.idle_timeout_ms = 150;
  HygieneFixture fx(options);

  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  // An ACTIVE connection is untouched: a round trip resets the idle clock.
  net::PlanRequestFrame request;
  request.request_id = 1;
  request.options.model = CostModel::kM2;
  request.query_text = fx.workload.query.ToString();
  net::PlanResponseFrame response;
  ASSERT_TRUE(RoundTrip(fd.get(), request, &response));
  ASSERT_EQ(response.status, WireStatus::kOk) << response.error;

  // Now go silent; the server must evict within a few ticks.
  EXPECT_TRUE(ReadUntilEof(fd.get(), std::chrono::seconds(10)));
  EXPECT_GE(fx.server->stats().evicted_idle, 1u);
}

TEST(ServerHygieneTest, OverCapacityRejectsWhenConfigured) {
  server::PlanServerOptions options;
  options.max_connections = 1;
  options.reject_over_capacity = true;
  HygieneFixture fx(options);

  std::string error;
  net::OwnedFd first =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(first.valid()) << error;
  net::PlanRequestFrame request;
  request.request_id = 1;
  request.options.model = CostModel::kM2;
  request.query_text = fx.workload.query.ToString();
  net::PlanResponseFrame response;
  ASSERT_TRUE(RoundTrip(first.get(), request, &response));  // registered

  net::OwnedFd second =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(second.valid()) << error;  // handshake completes (backlog)
  // The server accepts and immediately closes: EOF, no response ever.
  EXPECT_TRUE(ReadUntilEof(second.get(), std::chrono::seconds(10)));
  EXPECT_GE(fx.server->stats().rejected_connections, 1u);
}

TEST(ServerHygieneTest, BackpressureParksExtraClientsUntilASlotFrees) {
  server::PlanServerOptions options;
  options.max_connections = 1;  // default mode: pause accepting at the cap
  HygieneFixture fx(options);

  std::string error;
  net::OwnedFd first =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(first.valid()) << error;
  net::PlanRequestFrame request;
  request.request_id = 1;
  request.options.model = CostModel::kM2;
  request.query_text = fx.workload.query.ToString();
  net::PlanResponseFrame response;
  ASSERT_TRUE(RoundTrip(first.get(), request, &response));

  // The second client connects (kernel backlog) and sends its request,
  // but is not accepted — and so not answered — while the first holds
  // the only slot.
  net::OwnedFd second =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(second.valid()) << error;
  std::string wire;
  net::PlanRequestFrame parked;
  parked.request_id = 2;
  parked.options.model = CostModel::kM2;
  parked.query_text = fx.workload.query.ToString();
  EncodePlanRequest(parked, &wire);
  ASSERT_TRUE(net::WriteAll(second.get(), wire.data(), wire.size()));

  net::PlanResponseFrame parked_response;
  std::string buffer;
  char chunk[4096];
  const auto hold = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(400);
  bool answered_early = false;
  while (std::chrono::steady_clock::now() < hold) {
    const net::IoResult r = net::ReadSome(second.get(), chunk, sizeof(chunk));
    if (r.status == net::IoStatus::kOk && r.n > 0) {
      answered_early = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(answered_early)
      << "server answered past the connection cap";

  // Free the slot: the parked client must now be accepted and answered.
  first.reset();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool answered = false;
  while (!answered && std::chrono::steady_clock::now() < deadline) {
    std::string_view payload;
    size_t consumed = 0;
    const DecodeStatus es = net::ExtractFrame(
        buffer, net::kDefaultMaxPayload, &payload, &consumed);
    if (es == DecodeStatus::kOk) {
      ASSERT_EQ(net::DecodePlanResponse(payload, &parked_response),
                DecodeStatus::kOk);
      buffer.erase(0, consumed);
      answered = true;
      break;
    }
    ASSERT_EQ(es, DecodeStatus::kNeedMore);
    const net::IoResult r = net::ReadSome(second.get(), chunk, sizeof(chunk));
    if (r.status == net::IoStatus::kOk) {
      buffer.append(chunk, r.n);
    } else if (r.status == net::IoStatus::kWouldBlock) {
      pollfd pfd{second.get(), POLLIN, 0};
      ::poll(&pfd, 1, 20);
    } else {
      break;
    }
  }
  ASSERT_TRUE(answered) << "parked client never got its plan after a slot "
                           "freed (accept never resumed)";
  EXPECT_EQ(parked_response.status, WireStatus::kOk);
  EXPECT_EQ(parked_response.request_id, 2u);
}

TEST(ServerHygieneTest, SlowlorisDribblerIsEvictedButPipelinerIsNot) {
  server::PlanServerOptions options;
  options.progress_timeout_ms = 200;
  HygieneFixture fx(options);

  std::string error;
  // A SLOW BUT COMPLETE client: three full round trips, each well inside
  // the progress window — must never be evicted.
  {
    net::OwnedFd fd =
        net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
    ASSERT_TRUE(fd.valid()) << error;
    for (uint64_t id = 1; id <= 3; ++id) {
      net::PlanRequestFrame request;
      request.request_id = id;
      request.options.model = CostModel::kM2;
      request.query_text = fx.workload.query.ToString();
      net::PlanResponseFrame response;
      ASSERT_TRUE(RoundTrip(fd.get(), request, &response));
      ASSERT_EQ(response.status, WireStatus::kOk);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_EQ(fx.server->stats().evicted_slowloris, 0u);
  }

  // The DRIBBLER: half a frame, then silence — evicted once the partial
  // request outlives the progress window.
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  net::PlanRequestFrame request;
  request.request_id = 9;
  request.options.model = CostModel::kM2;
  request.query_text = fx.workload.query.ToString();
  std::string wire;
  EncodePlanRequest(request, &wire);
  ASSERT_TRUE(net::WriteAll(fd.get(), wire.data(), wire.size() / 2));
  EXPECT_TRUE(ReadUntilEof(fd.get(), std::chrono::seconds(10)));
  EXPECT_GE(fx.server->stats().evicted_slowloris, 1u);
}

// Connects with SO_RCVBUF pinned tiny BEFORE the handshake (fixes the
// advertised window and disables autotuning), so a non-reading peer jams
// the server's kernel send buffer after a few KB instead of megabytes.
net::OwnedFd ConnectWithTinyRcvbuf(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return net::OwnedFd();
  const int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return net::OwnedFd();
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return net::OwnedFd(fd);
}

TEST(ServerHygieneTest, PeerThatStopsReadingIsEvictedForWriteStall) {
  server::PlanServerOptions options;
  options.write_stall_timeout_ms = 300;
  HygieneFixture fx(options);

  net::OwnedFd fd = ConnectWithTinyRcvbuf(fx.server->binary_port());
  ASSERT_TRUE(fd.valid());

  // Pipeline many certificate-bearing requests and never read a byte:
  // responses back up through the (deliberately tiny) kernel buffers into
  // the server's out buffer, which then stalls past the deadline.
  net::PlanRequestFrame request;
  request.want_certificate = true;
  request.options.model = CostModel::kM2;
  request.query_text = fx.workload.query.ToString();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  uint64_t id = 0;
  bool evicted = false;
  // Client-side outbox so a partial write never tears a frame: the kernel
  // takes what it wants, the remainder goes out first next round.
  std::string outbox;
  size_t outbox_at = 0;
  while (std::chrono::steady_clock::now() < deadline && !evicted) {
    if (outbox.size() - outbox_at < 4096) {
      outbox.erase(0, outbox_at);
      outbox_at = 0;
      for (int burst = 0; burst < 32; ++burst) {
        request.request_id = ++id;
        EncodePlanRequest(request, &outbox);
      }
    }
    const net::IoResult r = net::WriteSome(
        fd.get(), outbox.data() + outbox_at, outbox.size() - outbox_at);
    if (r.status == net::IoStatus::kOk) {
      outbox_at += r.n;
    } else if (r.status == net::IoStatus::kWouldBlock) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }  // kError: the eviction reset our send side — just poll stats below
    evicted = fx.server->stats().evicted_write_stall >= 1;
  }
  EXPECT_TRUE(evicted) << "server never evicted the non-reading peer";
}

TEST(ServerHygieneTest, WriteStallHistogramSurfacesInMetricz) {
  HygieneFixture fx(server::PlanServerOptions{});

  // One real round trip so the flush path has recorded at least once.
  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  net::PlanRequestFrame request;
  request.request_id = 1;
  request.options.model = CostModel::kM2;
  request.query_text = fx.workload.query.ToString();
  net::PlanResponseFrame response;
  ASSERT_TRUE(RoundTrip(fd.get(), request, &response));

  net::OwnedFd http =
      net::ConnectTcp("127.0.0.1", fx.server->http_port(), &error);
  ASSERT_TRUE(http.valid()) << error;
  const std::string get =
      "GET /metricz?format=text HTTP/1.1\r\nHost: t\r\n"
      "Connection: close\r\n\r\n";
  ASSERT_TRUE(net::WriteAll(http.get(), get.data(), get.size()));
  std::string body;
  ASSERT_TRUE(ReadUntilEof(http.get(), std::chrono::seconds(10), &body));
  EXPECT_NE(body.find("server.write_stall_us"), std::string::npos)
      << "metricz body:\n" << body;
}

TEST(ServerHygieneTest, DrainFlushesInFlightWorkThenCloses) {
  HygieneFixture fx(server::PlanServerOptions{});

  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;

  // Fire a request and IMMEDIATELY drain: the drain must wait for the
  // in-flight plan, flush its response, and only then close.
  net::PlanRequestFrame request;
  request.request_id = 5;
  request.want_certificate = true;
  request.options.model = CostModel::kM2;
  request.query_text = fx.workload.query.ToString();
  std::string wire;
  EncodePlanRequest(request, &wire);
  ASSERT_TRUE(net::WriteAll(fd.get(), wire.data(), wire.size()));

  std::thread drainer([&] { EXPECT_TRUE(fx.server->Drain(10000)); });

  // The response arrives complete, THEN the connection closes.
  std::string buffer;
  net::PlanResponseFrame response;
  bool got_response = false;
  char chunk[8192];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  bool eof = false;
  while (std::chrono::steady_clock::now() < deadline && !eof) {
    const net::IoResult r = net::ReadSome(fd.get(), chunk, sizeof(chunk));
    if (r.status == net::IoStatus::kOk) {
      buffer.append(chunk, r.n);
    } else if (r.status == net::IoStatus::kWouldBlock) {
      pollfd pfd{fd.get(), POLLIN, 0};
      ::poll(&pfd, 1, 20);
    } else {
      eof = true;
    }
    std::string_view payload;
    size_t consumed = 0;
    if (!got_response &&
        net::ExtractFrame(buffer, net::kDefaultMaxPayload, &payload,
                          &consumed) == DecodeStatus::kOk) {
      ASSERT_EQ(net::DecodePlanResponse(payload, &response),
                DecodeStatus::kOk);
      buffer.erase(0, consumed);
      got_response = true;
    }
  }
  drainer.join();
  ASSERT_TRUE(got_response)
      << "drain closed the connection before flushing the response";
  EXPECT_EQ(response.status, WireStatus::kOk) << response.error;
  EXPECT_EQ(response.request_id, 5u);
  EXPECT_TRUE(eof) << "drain never closed the drained connection";

  // After a clean drain, new connections are not accepted (listeners are
  // gone); Stop() in the fixture tears the rest down.
  EXPECT_EQ(fx.server->stats().active_connections, 0u);
}

}  // namespace
}  // namespace vbr
