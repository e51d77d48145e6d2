#include "net/chaos_socket.h"

#include <sys/socket.h>

#include <chrono>
#include <mutex>
#include <thread>
#include <unordered_set>

namespace vbr::net {

namespace {

// splitmix64 finalizer: the decision for crossing n of a site is a pure
// function of (seed, site salt, n), so schedules replay from the seed.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

constexpr uint64_t kReadSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kWriteSalt = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kAcceptSalt = 0x165667b19e3779f9ULL;
constexpr uint64_t kConnectSalt = 0x27d4eb2f165667c5ULL;

// The fault mix, in percent of crossings per operation kind.  The rates
// keep a resilient client making progress (aggregate ~15% of operations).
constexpr int kReadDisconnectPct = 1;   // shutdown(2) the socket, kError
constexpr int kReadEagainPct = 4;       // spurious kWouldBlock, no syscall
constexpr int kShortReadPct = 6;        // clamp the read to a single byte
constexpr int kWriteDisconnectPct = 1;  // shutdown(2) mid-frame, kError
constexpr int kWriteEagainPct = 4;      // spurious kWouldBlock, no syscall
constexpr int kShortWritePct = 6;       // clamp the write to a single byte
constexpr int kWriteDelayPct = 2;       // sleep kWriteDelay, then write
constexpr int kAcceptResetPct = 5;      // RST the just-accepted connection
constexpr int kConnectFailPct = 5;      // fail ConnectTcp[Timeout] outright
constexpr std::chrono::microseconds kWriteDelay{200};

struct ChaosState {
  uint64_t seed = 1;
  std::atomic<uint64_t> read_crossings{0};
  std::atomic<uint64_t> write_crossings{0};
  std::atomic<uint64_t> accept_crossings{0};
  std::atomic<uint64_t> connect_crossings{0};

  std::atomic<uint64_t> short_reads{0};
  std::atomic<uint64_t> short_writes{0};
  std::atomic<uint64_t> read_eagains{0};
  std::atomic<uint64_t> write_eagains{0};
  std::atomic<uint64_t> write_delays{0};
  std::atomic<uint64_t> read_disconnects{0};
  std::atomic<uint64_t> write_disconnects{0};
  std::atomic<uint64_t> accept_resets{0};
  std::atomic<uint64_t> connect_failures{0};

  std::mutex tracked_mu;
  std::unordered_set<int> tracked;
};

ChaosState& State() {
  static ChaosState* const state = new ChaosState();
  return *state;
}

// Picks this crossing's fault: percent thresholds are evaluated in order
// over one uniform draw in [0, 100), so at most one fault fires and the
// aggregate fault rate is the sum of the rates.
enum class Pick : uint8_t { kNone, kDisconnect, kEagain, kShort, kDelay };

Pick Draw(uint64_t salt, uint64_t crossing, int disconnect_pct,
          int eagain_pct, int short_pct, int delay_pct) {
  const uint64_t z =
      Mix64(State().seed ^ salt ^ (crossing * 0xd1342543de82ef95ULL));
  const int roll = static_cast<int>(z % 100);
  int bound = disconnect_pct;
  if (roll < bound) return Pick::kDisconnect;
  bound += eagain_pct;
  if (roll < bound) return Pick::kEagain;
  bound += short_pct;
  if (roll < bound) return Pick::kShort;
  bound += delay_pct;
  if (roll < bound) return Pick::kDelay;
  return Pick::kNone;
}

// The peer observes the disconnect immediately: shutdown(2) tears the
// stream down without releasing the fd number, so the owner's eventual
// close(2) stays the only close and fd reuse cannot be confused.
IoResult InjectDisconnect(int fd) {
  ::shutdown(fd, SHUT_RDWR);
  return {IoStatus::kError, 0};
}

}  // namespace

std::atomic<bool> ChaosSocket::enabled_{false};

void ChaosSocket::Enable(uint64_t seed) {
  ChaosState& state = State();
  {
    std::lock_guard<std::mutex> lock(state.tracked_mu);
    state.tracked.clear();
  }
  state.seed = seed;
  state.read_crossings.store(0);
  state.write_crossings.store(0);
  state.accept_crossings.store(0);
  state.connect_crossings.store(0);
  state.short_reads.store(0);
  state.short_writes.store(0);
  state.read_eagains.store(0);
  state.write_eagains.store(0);
  state.write_delays.store(0);
  state.read_disconnects.store(0);
  state.write_disconnects.store(0);
  state.accept_resets.store(0);
  state.connect_failures.store(0);
  enabled_.store(true, std::memory_order_release);
}

void ChaosSocket::Disable() {
  enabled_.store(false, std::memory_order_release);
  ChaosState& state = State();
  std::lock_guard<std::mutex> lock(state.tracked_mu);
  state.tracked.clear();
}

ChaosSocket::Stats ChaosSocket::stats() {
  ChaosState& state = State();
  Stats s;
  s.short_reads = state.short_reads.load(std::memory_order_relaxed);
  s.short_writes = state.short_writes.load(std::memory_order_relaxed);
  s.read_eagains = state.read_eagains.load(std::memory_order_relaxed);
  s.write_eagains = state.write_eagains.load(std::memory_order_relaxed);
  s.write_delays = state.write_delays.load(std::memory_order_relaxed);
  s.read_disconnects = state.read_disconnects.load(std::memory_order_relaxed);
  s.write_disconnects =
      state.write_disconnects.load(std::memory_order_relaxed);
  s.accept_resets = state.accept_resets.load(std::memory_order_relaxed);
  s.connect_failures =
      state.connect_failures.load(std::memory_order_relaxed);
  return s;
}

void ChaosSocket::Track(int fd) {
  if (fd < 0) return;
  ChaosState& state = State();
  std::lock_guard<std::mutex> lock(state.tracked_mu);
  state.tracked.insert(fd);
}

void ChaosSocket::Untrack(int fd) {
  ChaosState& state = State();
  std::lock_guard<std::mutex> lock(state.tracked_mu);
  state.tracked.erase(fd);
}

bool ChaosSocket::IsTracked(int fd) {
  ChaosState& state = State();
  std::lock_guard<std::mutex> lock(state.tracked_mu);
  return state.tracked.count(fd) > 0;
}

ChaosVerdict ChaosSocket::BeforeRead(int fd, size_t len) {
  ChaosVerdict verdict;
  if (!IsTracked(fd)) return verdict;
  ChaosState& state = State();
  const uint64_t n =
      state.read_crossings.fetch_add(1, std::memory_order_relaxed);
  switch (Draw(kReadSalt, n, kReadDisconnectPct, kReadEagainPct,
               kShortReadPct, 0)) {
    case Pick::kDisconnect:
      state.read_disconnects.fetch_add(1, std::memory_order_relaxed);
      verdict.forced = InjectDisconnect(fd);
      break;
    case Pick::kEagain:
      state.read_eagains.fetch_add(1, std::memory_order_relaxed);
      verdict.forced = IoResult{IoStatus::kWouldBlock, 0};
      break;
    case Pick::kShort:
      if (len > 1) {
        state.short_reads.fetch_add(1, std::memory_order_relaxed);
        verdict.max_len = 1;
      }
      break;
    default:
      break;
  }
  return verdict;
}

ChaosVerdict ChaosSocket::BeforeWrite(int fd, size_t len) {
  ChaosVerdict verdict;
  if (!IsTracked(fd)) return verdict;
  ChaosState& state = State();
  const uint64_t n =
      state.write_crossings.fetch_add(1, std::memory_order_relaxed);
  switch (Draw(kWriteSalt, n, kWriteDisconnectPct, kWriteEagainPct,
               kShortWritePct, kWriteDelayPct)) {
    case Pick::kDisconnect:
      state.write_disconnects.fetch_add(1, std::memory_order_relaxed);
      verdict.forced = InjectDisconnect(fd);
      break;
    case Pick::kEagain:
      state.write_eagains.fetch_add(1, std::memory_order_relaxed);
      verdict.forced = IoResult{IoStatus::kWouldBlock, 0};
      break;
    case Pick::kShort:
      if (len > 1) {
        state.short_writes.fetch_add(1, std::memory_order_relaxed);
        verdict.max_len = 1;
      }
      break;
    case Pick::kDelay:
      state.write_delays.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(kWriteDelay);
      break;
    default:
      break;
  }
  return verdict;
}

bool ChaosSocket::OnAccept(int fd) {
  ChaosState& state = State();
  const uint64_t n =
      state.accept_crossings.fetch_add(1, std::memory_order_relaxed);
  if (Draw(kAcceptSalt, n, kAcceptResetPct, 0, 0, 0) == Pick::kDisconnect) {
    state.accept_resets.fetch_add(1, std::memory_order_relaxed);
    // SO_LINGER(0) turns the close into an RST, which is what a client
    // that vanished between connect and accept looks like.
    const linger hard{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    return true;
  }
  return false;
}

bool ChaosSocket::OnConnect() {
  ChaosState& state = State();
  const uint64_t n =
      state.connect_crossings.fetch_add(1, std::memory_order_relaxed);
  if (Draw(kConnectSalt, n, kConnectFailPct, 0, 0, 0) == Pick::kDisconnect) {
    state.connect_failures.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

}  // namespace vbr::net
