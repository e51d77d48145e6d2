// PlanServer: the network front end over PlanningService.
//
// Architecture — a thin I/O shell, with every queueing/overload decision
// delegated to the service it wraps:
//
//   - ONE IO thread runs a poll(2) loop (net/poller.h) over two listeners
//     (binary protocol + HTTP debug endpoint), all accepted connections,
//     and a socketpair wakeup channel.  All reads, writes, frame parsing,
//     and HTTP parsing happen on this thread; it never plans.
//   - Planning goes through PlanningService::SubmitWithCallback, so
//     admission control, deadlines, and the brown-out ladder apply to wire
//     requests exactly as to in-process ones (each admitted request is
//     planned once; retrying is the client's call).  The completion
//     callback (worker thread) encodes the response frame and posts it to a
//     completion queue; one byte on the socketpair wakes the IO thread to
//     flush it to the right connection.
//   - A connection that disappears while its request is still planning is
//     simply forgotten: the completion arrives, finds no connection with
//     that id, and is counted in dropped_responses.  Nothing blocks.
//   - ONE debug thread serves GET /explain (ViewPlanner::Explain is
//     deliberately expensive), under the service's budget cap;
//     /metricz, /statz, and /healthz are answered inline on the IO thread.
//   - Input limits are fixed (plan_server.cc): a binary frame payload over
//     net::kDefaultMaxPayload (1 MiB) drops the connection, an HTTP request
//     over 1 MiB is answered 413, and at most 65536 query texts are issued
//     reusable handles.
//
// The server does not own the service or the planner; both must outlive
// it.  Stop() closes the listeners and connections and joins the threads
// but leaves the service running.
#ifndef VBR_SERVER_PLAN_SERVER_H_
#define VBR_SERVER_PLAN_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "net/frame.h"
#include "net/http.h"
#include "net/poller.h"
#include "net/socket.h"
#include "planner/service.h"

namespace vbr::server {

struct PlanServerOptions {
  std::string host = "127.0.0.1";
  // 0 = pick an ephemeral port (read back via binary_port / http_port).
  uint16_t binary_port = 0;
  uint16_t http_port = 0;
  size_t max_connections = 256;
  // At the connection cap: false (default) pauses the listeners so new
  // clients queue in the kernel backlog (accept-backpressure, resumed when
  // a connection closes); true accepts and immediately closes, which the
  // client observes as rejection (counted in rejected_connections).
  bool reject_over_capacity = false;

  // Connection hygiene deadlines, enforced from the poll loop each tick
  // (~200ms granularity).  0 disables the corresponding eviction.
  //
  // A connection with no read activity, no request in flight, and nothing
  // buffered to write for this long is evicted (counted evicted_idle).
  int idle_timeout_ms = 0;
  // Slowloris defense — the progress watermark: once a partial request sits
  // buffered, the client has this long to complete SOME request before the
  // connection is evicted (counted evicted_slowloris).  The watermark
  // resets every time a complete request is consumed, so a slow-but-
  // pipelining client is fine; a client dribbling one byte per second is
  // not.
  int progress_timeout_ms = 0;
  // A connection whose buffered output makes no progress for this long is
  // evicted (counted evicted_write_stall) — the peer stopped reading.
  int write_stall_timeout_ms = 0;
};

// Monotone counters; readable while the server runs.
struct PlanServerStats {
  uint64_t accepted = 0;
  uint64_t rejected_connections = 0;  // over max_connections
  uint64_t active_connections = 0;
  uint64_t frames_received = 0;
  uint64_t responses_sent = 0;
  // Completions whose connection was gone (client disconnected mid-plan).
  uint64_t dropped_responses = 0;
  uint64_t bad_frames = 0;
  uint64_t http_requests = 0;
  uint64_t handle_hits = 0;
  uint64_t handle_misses = 0;
  // Distinct query texts whose fingerprint collided with a stored one;
  // such texts are planned but issued no reusable handle.
  uint64_t handle_collisions = 0;
  // Hygiene evictions (see PlanServerOptions deadlines).
  uint64_t evicted_idle = 0;
  uint64_t evicted_slowloris = 0;
  uint64_t evicted_write_stall = 0;

  std::string ToJson() const;
};

class PlanServer {
 public:
  // `service` (and the planner behind it) must outlive the server.
  PlanServer(PlanningService* service, PlanServerOptions options);
  ~PlanServer();

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  // Binds both listeners and starts the IO + debug threads.  Returns false
  // and fills *error on bind failure (nothing is left running).
  bool Start(std::string* error);

  // Graceful drain: stops accepting new connections, keeps flushing
  // in-flight completions, closes each connection once it has nothing
  // pending, and returns when all connections are gone or grace_ms
  // elapsed (true = drained cleanly).  Call Stop() afterwards; Stop
  // force-closes whatever the grace period left behind.
  bool Drain(int grace_ms);

  // Idempotent.  Closes listeners and connections, joins threads.  Plan
  // completions arriving after Stop are dropped (never crash).
  void Stop();

  // Bound ports (valid after Start; resolves port-0 binds).
  uint16_t binary_port() const { return binary_port_; }
  uint16_t http_port() const { return http_port_; }

  PlanServerStats stats() const;

 private:
  enum class ConnKind : uint8_t { kBinary, kHttp };

  struct Connection {
    uint64_t id = 0;
    net::OwnedFd fd;
    ConnKind kind = ConnKind::kBinary;
    std::string in;
    std::string out;
    size_t out_offset = 0;
    // Close once `out` is flushed (HTTP Connection: close, fatal frames).
    bool close_after_flush = false;
    // HTTP: a /plan or /explain is in flight; hold further parsing until
    // its response has been queued (one request in flight per connection).
    bool busy = false;
    // Requests submitted minus responses delivered, for dropped-response
    // accounting when the connection dies early.
    uint64_t in_flight = 0;
    // Hygiene clocks (steady-clock milliseconds; 0 = not pending).
    int64_t last_activity_ms = 0;      // last read bytes / full flush
    int64_t partial_since_ms = 0;      // progress watermark (slowloris)
    int64_t write_pending_us = 0;      // when `out` last became non-empty
    int64_t last_write_progress_ms = 0;  // last byte accepted by the kernel
  };

  // Bytes ready to be written to connection `conn_id`, produced by service
  // workers (binary completions, HTTP plan completions) or the debug
  // thread.  Shared via shared_ptr so late completions outlive the server.
  struct Completion {
    uint64_t conn_id = 0;
    std::string wire;
    // Close the connection once `wire` is flushed (HTTP Connection: close).
    bool close_after_flush = false;
  };
  struct CompletionQueue {
    std::mutex mu;
    std::vector<Completion> ready;
    net::OwnedFd wakeup_tx;
    std::atomic<bool> open{true};

    void Post(uint64_t conn_id, std::string wire, bool close_after_flush);
  };

  struct DebugJob {
    uint64_t conn_id = 0;
    net::HttpRequest request;
    bool keep_alive = true;
  };

  void IoLoop();
  void DebugLoop();

  void AcceptAll(int listener_fd, ConnKind kind);
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  void CloseConn(Connection& conn);
  void UpdateInterest(Connection& conn);
  void DrainCompletions();
  // Appends wire bytes to conn.out, stamping the write-stall clock when the
  // buffer transitions from flushed to pending.
  void AppendOutput(Connection& conn, std::string_view wire);
  // One poll-loop tick of hygiene: evicts idle / stalled / slowloris
  // connections per the options' deadlines.
  void EnforceDeadlines();
  // One poll-loop tick of graceful drain: closes listeners, then closes
  // every connection with nothing pending; signals Drain() when none left.
  void DrainTick();
  void PauseAccept();
  void ResumeAccept();

  // Binary path: decodes and dispatches every complete frame in conn.in.
  // Returns true when at least one complete frame was consumed (progress
  // for the slowloris watermark).
  bool ProcessBinary(Connection& conn);
  void SubmitWireRequest(Connection& conn, const net::PlanRequestFrame& frame);
  void SendWireError(Connection& conn, uint64_t request_id,
                     net::WireStatus status, const std::string& error);

  // HTTP path: parses and routes at most one request ahead.  Returns true
  // when at least one complete request was consumed.
  bool ProcessHttp(Connection& conn);
  void RouteHttp(Connection& conn, net::HttpRequest request);
  void HandleHttpPlan(Connection& conn, const net::HttpRequest& request);
  void QueueHttpResponse(Connection& conn, int status_code,
                         std::string_view body, bool keep_alive);

  PlanningService* const service_;
  const PlanServerOptions options_;

  net::OwnedFd binary_listener_;
  net::OwnedFd http_listener_;
  net::OwnedFd wakeup_rx_;
  uint16_t binary_port_ = 0;
  uint16_t http_port_ = 0;

  std::shared_ptr<CompletionQueue> completions_;
  net::Poller poller_;
  // Live connections, keyed both ways: the poller reports fds, completions
  // carry ids (ids are never reused; fds are).
  std::unordered_map<int, std::shared_ptr<Connection>> conns_by_fd_;
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_by_id_;
  uint64_t next_conn_id_ = 1;

  // Query-handle map: fingerprint -> parsed query, IO thread only, capped
  // at kHandleCapacity entries (plan_server.cc).  The exact text is kept so
  // a 64-bit fingerprint collision is detected on insert instead of
  // silently serving the first query to both clients.
  struct HandleEntry {
    std::string text;
    ConjunctiveQuery query;
  };
  std::unordered_map<uint64_t, HandleEntry> handles_;

  // Debug worker state.
  std::mutex debug_mu_;
  std::condition_variable debug_cv_;
  std::deque<DebugJob> debug_jobs_;
  bool debug_stop_ = false;

  std::atomic<bool> running_{false};
  bool started_ = false;
  std::thread io_thread_;
  std::thread debug_thread_;

  // Accept-backpressure state (IO thread only).
  bool accept_paused_ = false;

  // Graceful-drain state.
  std::atomic<bool> draining_{false};
  bool drain_listeners_closed_ = false;  // IO thread only
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  bool drain_done_ = false;

  // Time buffered output waited before it was fully flushed, microseconds
  // (near zero on the happy path; the tail is the write-stall signal).
  Histogram* write_stall_us_ = nullptr;

  // Stats counters (atomics: written by IO/debug/worker threads).
  mutable std::atomic<uint64_t> accepted_{0};
  mutable std::atomic<uint64_t> rejected_connections_{0};
  mutable std::atomic<uint64_t> active_connections_{0};
  mutable std::atomic<uint64_t> frames_received_{0};
  mutable std::atomic<uint64_t> responses_sent_{0};
  mutable std::atomic<uint64_t> dropped_responses_{0};
  mutable std::atomic<uint64_t> bad_frames_{0};
  mutable std::atomic<uint64_t> http_requests_{0};
  mutable std::atomic<uint64_t> handle_hits_{0};
  mutable std::atomic<uint64_t> handle_misses_{0};
  mutable std::atomic<uint64_t> handle_collisions_{0};
  mutable std::atomic<uint64_t> evicted_idle_{0};
  mutable std::atomic<uint64_t> evicted_slowloris_{0};
  mutable std::atomic<uint64_t> evicted_write_stall_{0};
};

}  // namespace vbr::server

#endif  // VBR_SERVER_PLAN_SERVER_H_
