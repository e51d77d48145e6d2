// Deterministic socket-level chaos: a seeded fault-injecting layer under
// the socket primitives in net/socket.h.
//
// The in-process planner already survives injected compute faults (the
// Nth-crossing FaultRegistry in common/fault_injection.h).  This header
// extends the same discipline to I/O: when the layer is enabled, every
// read/write/accept/connect on a TRACKED descriptor consults a seeded
// schedule and may be perturbed with one of the failure modes a hostile
// network produces —
//
//   - short reads / short writes   (the kernel transferred one byte)
//   - spurious EAGAIN              (readiness lied; poll and retry)
//   - delayed flushes              (the write stalls before completing)
//   - mid-stream disconnects       (shutdown(2); the peer sees EOF/RST)
//   - post-accept resets           (client vanished before the first byte)
//   - connect failures             (SYN lost, route flapped)
//
// Determinism.  Each operation kind keeps its own crossing counter, and
// the decision for crossing n is a pure function splitmix64(seed, site, n)
// — a single-threaded client replays the exact same fault schedule from
// the same seed, and a multi-threaded soak replays the same fault MIX.
// The mix is fixed (the rates live in chaos_socket.cc): every failure mode
// is enabled at rates that keep a resilient client making progress, about
// 15% of operations in aggregate.
//
// Scope.  Faults apply only to descriptors the layer tracks: sockets
// returned by AcceptConn and ConnectTcp[Timeout] while the layer is
// enabled.  The server's internal wakeup socketpair and any fd opened
// while the layer is off are never perturbed.  Closing a descriptor
// (OwnedFd::reset) untracks it, so fd-number reuse cannot leak chaos onto
// an innocent connection.
//
// Cost.  Disabled (the default), every hook is one relaxed atomic load —
// bench_service_net throughput is the pinned regression gate.
#ifndef VBR_NET_CHAOS_SOCKET_H_
#define VBR_NET_CHAOS_SOCKET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "net/socket.h"

namespace vbr::net {

// What an interposed operation should do (the contract between this layer
// and socket.cc; tests/net/chaos_socket_test.cc drives it directly).
struct ChaosVerdict {
  // When set, the operation returns this result without any syscall (the
  // disconnect verdicts shutdown(2) the fd first).
  std::optional<IoResult> forced;
  // Otherwise the operation proceeds with len clamped to this many bytes.
  size_t max_len = SIZE_MAX;
};

// Process-global chaos layer.  All members are static: the layer models
// the one network the process talks through.
class ChaosSocket {
 public:
  // Counters of injected faults since Enable (relaxed; exact once the
  // sockets quiesce).
  struct Stats {
    uint64_t short_reads = 0;
    uint64_t short_writes = 0;
    uint64_t read_eagains = 0;
    uint64_t write_eagains = 0;
    uint64_t write_delays = 0;
    uint64_t read_disconnects = 0;
    uint64_t write_disconnects = 0;
    uint64_t accept_resets = 0;
    uint64_t connect_failures = 0;

    uint64_t disconnects() const {
      return read_disconnects + write_disconnects + accept_resets;
    }
  };

  // Enabling resets the crossing counters, fault stats, and tracked set,
  // so every Enable starts an identical schedule for the given seed.
  static void Enable(uint64_t seed);
  static void Disable();
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static Stats stats();

  // Descriptor tracking (socket.cc calls these; tests may too).
  static void Track(int fd);
  static void Untrack(int fd);
  static bool IsTracked(int fd);

  // Interposition points, called by the socket primitives when enabled().
  // BeforeRead/BeforeWrite return the verdict for this crossing;
  // OnAccept returns true when the accepted fd must be reset-closed;
  // OnConnect returns true when the connect attempt must fail.
  static ChaosVerdict BeforeRead(int fd, size_t len);
  static ChaosVerdict BeforeWrite(int fd, size_t len);
  static bool OnAccept(int fd);
  static bool OnConnect();

 private:
  static std::atomic<bool> enabled_;
};

}  // namespace vbr::net

#endif  // VBR_NET_CHAOS_SOCKET_H_
