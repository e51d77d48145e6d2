// The wire workload's load generator: one binary-protocol connection.
//
// Open loop: request i of a phase is due at start + i / rate; it is sent as
// soon as the loop gets to it, and its latency runs from the due time to
// the decoded response, so a stall in the server or in the generator itself
// counts against every request it delays. How late the generator ran is
// recorded per request.
//
// Closed loop: a request is due as soon as fewer than `window` requests
// are unanswered, so the server always has that many to work on.
//
// The loop never sleeps: it polls the socket without a timeout, so the
// client adds no wake-up latency of its own to what it measures.
//
// The client is written for this benchmark rather than reusing
// net::RunLoad, which stamps latency at the actual send and fixes one cost
// model per run.
#ifndef VBRBENCH_WIRE_CLIENT_H_
#define VBRBENCH_WIRE_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cq/query.h"
#include "net/frame.h"
#include "net/socket.h"

namespace vbrbench {

struct WireRequest {
  const std::string* text = nullptr;
  vbr::CostModel model = vbr::CostModel::kM1;
};

// What happened to one request of a phase.
struct WireSample {
  uint64_t request_id = 0;
  bool answered = false;
  double due_s = 0;
  double late_ms = 0;      // send time - due time
  double latency_ms = 0;   // due time -> decoded response
  double encode_us = 0;
  double decode_us = 0;
  size_t request_bytes = 0;
  size_t response_bytes = 0;
  // What the benchmark reads from the response frame.
  vbr::net::WireStatus status = vbr::net::WireStatus::kBadRequest;
  uint8_t plan_status = 0;
  uint64_t cost = 0;
  double queue_wait_ms = 0;
};

struct PhaseResult {
  std::vector<WireSample> samples;
  double elapsed_s = 0;
  bool transport_error = false;
};

class WireClient {
 public:
  bool Connect(uint16_t port, std::string* error);

  // Sends requests for `seconds`, open loop at `rate` per second when
  // `window` is 0, else closed loop with `window` in flight. Request k
  // comes from next(k) and is numbered first_id + k; `on_sent(k)` runs
  // after each send. Then waits up to `grace_s` for the responses still
  // outstanding.
  PhaseResult RunPhase(double seconds, double rate, size_t window,
                       uint64_t first_id,
                       const std::function<WireRequest(size_t)>& next,
                       const std::function<void(size_t)>& on_sent,
                       double grace_s);

 private:
  vbr::net::OwnedFd fd_;
  std::string rx_;
};

}  // namespace vbrbench

#endif  // VBRBENCH_WIRE_CLIENT_H_
