#include "wire_client.h"

#include <poll.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <ctime>

#include "report.h"

namespace vbrbench {

bool WireClient::Connect(uint16_t port, std::string* error) {
  fd_ = vbr::net::ConnectTcp("127.0.0.1", port, error);
  return fd_.valid();
}

PhaseResult WireClient::RunPhase(
    double seconds, double rate, size_t window, uint64_t first_id,
    const std::function<WireRequest(size_t)>& next,
    const std::function<void(size_t)>& on_sent, double grace_s) {
  PhaseResult phase;
  phase.samples.reserve(1 << 16);
  std::string tx;
  size_t tx_offset = 0;
  size_t sent = 0;
  size_t answered = 0;
  const double start = NowSec();
  double last_send = start;
  char buf[1 << 16];

  for (;;) {
    double now = NowSec();
    // Send everything that is due.
    for (;;) {
      // Open loop: due on the schedule. Closed loop: due now if the window
      // has room, else not yet.
      const double due = window == 0                ? start + sent / rate
                         : sent - answered < window ? now
                                                    : now + seconds;
      if (due > now || due - start >= seconds) break;
      WireSample& sample = phase.samples.emplace_back();
      const WireRequest request = next(sent);
      sample.request_id = first_id + sent;
      sample.due_s = due;
      vbr::net::PlanRequestFrame frame;
      frame.request_id = sample.request_id;
      frame.want_certificate = false;
      frame.options.model = request.model;
      frame.query_text = *request.text;
      const double t0 = NowSec();
      const size_t before = tx.size();
      vbr::net::EncodePlanRequest(frame, &tx);
      now = NowSec();
      sample.encode_us = (now - t0) * 1e6;
      sample.request_bytes = tx.size() - before;
      sample.late_ms = (now - sample.due_s) * 1e3;
      last_send = now;
      ++sent;
      on_sent(sent - 1);
    }
    if (tx_offset < tx.size()) {
      const vbr::net::IoResult w = vbr::net::WriteSome(
          fd_.get(), tx.data() + tx_offset, tx.size() - tx_offset);
      if (w.status == vbr::net::IoStatus::kOk) {
        tx_offset += w.n;
        if (tx_offset == tx.size()) {
          tx.clear();
          tx_offset = 0;
        }
      } else if (w.status != vbr::net::IoStatus::kWouldBlock) {
        phase.transport_error = true;
        break;
      }
    }
    const bool done_sending = NowSec() - start >= seconds;
    if (done_sending && answered == sent) break;
    if (done_sending && NowSec() > last_send + grace_s) break;

    pollfd pfd{fd_.get(),
               static_cast<short>(POLLIN | (tx.empty() ? 0 : POLLOUT)), 0};
    if (poll(&pfd, 1, 0) <= 0 ||
        (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      // Nothing to read: give the CPU to any server thread that is
      // runnable here rather than make it wait out this thread's slice.
      sched_yield();
      continue;
    }

    for (;;) {
      const vbr::net::IoResult r = vbr::net::ReadSome(fd_.get(), buf, sizeof(buf));
      if (r.status == vbr::net::IoStatus::kOk) {
        rx_.append(buf, r.n);
        continue;
      }
      if (r.status != vbr::net::IoStatus::kWouldBlock) {
        phase.transport_error = true;
      }
      break;
    }
    size_t pos = 0;
    for (;;) {
      std::string_view payload;
      size_t consumed = 0;
      const vbr::net::DecodeStatus ds = vbr::net::ExtractFrame(
          std::string_view(rx_).substr(pos), vbr::net::kDefaultMaxPayload,
          &payload, &consumed);
      if (ds != vbr::net::DecodeStatus::kOk) {
        if (ds != vbr::net::DecodeStatus::kNeedMore) {
          phase.transport_error = true;
        }
        break;
      }
      vbr::net::PlanResponseFrame response;
      const double t0 = NowSec();
      const vbr::net::DecodeStatus rs =
          vbr::net::DecodePlanResponse(payload, &response);
      const double t1 = NowSec();
      pos += consumed;
      if (rs != vbr::net::DecodeStatus::kOk ||
          response.request_id < first_id ||
          response.request_id >= first_id + sent) {
        phase.transport_error = true;
        continue;
      }
      WireSample& sample = phase.samples[response.request_id - first_id];
      if (sample.answered) {
        phase.transport_error = true;  // a duplicate response
        continue;
      }
      sample.answered = true;
      sample.decode_us = (t1 - t0) * 1e6;
      sample.response_bytes = consumed;
      sample.latency_ms = (t1 - sample.due_s) * 1e3;
      sample.status = response.status;
      sample.plan_status = response.plan_status;
      sample.cost = response.cost;
      sample.queue_wait_ms = response.queue_wait_ms;
      ++answered;
    }
    if (pos > 0) rx_.erase(0, pos);
    if (phase.transport_error) break;
  }
  phase.elapsed_s = NowSec() - start;
  return phase;
}

}  // namespace vbrbench
