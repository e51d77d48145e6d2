#ifndef VBR_COMMON_CIRCUIT_BREAKER_H_
#define VBR_COMMON_CIRCUIT_BREAKER_H_

#include <atomic>
#include <bitset>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace vbr {

// A multi-level circuit breaker driving the PlanningService's brown-out
// ladder (see DESIGN.md "Serving and overload").
//
// Classic circuit breakers are binary (closed / open); planning degrades
// more gracefully than that, because the paper's cost-model hierarchy gives
// a ladder of cheaper service levels before outright rejection: full
// planning -> shed tracing -> shrunken budgets -> cached-or-M1-only ->
// reject (the rungs are named by PlanningService::ServiceLevel). The
// breaker tracks a sliding window of request outcomes and walks the ladder
// one rung at a time: sustained failure (budget exhaustion, deadline
// misses) escalates, sustained success de-escalates.
//
// Determinism: the level is a pure function of the outcome SEQUENCE — the
// breaker reads no clock and no RNG. A level move clears the window, so
// the kMinSamples outcomes it needs before acting again are also the
// cooldown between moves, counted in outcomes, not seconds: a test that
// feeds a fixed outcome sequence observes a fixed level trajectory.
// Recovery needs traffic, not time: at the reject level every
// kProbeInterval-th admission is let through as a probe (the half-open
// state), so the window keeps receiving genuine outcomes and the breaker
// can walk back down.
//
// Thread safety: Record* and Admit take a mutex (the window is shared
// state); level() is a lock-free atomic read for hot-path checks.

class CircuitBreaker {
 public:
  enum class Admission {
    kAdmit = 0,  // below the reject level: serve (possibly degraded)
    kProbe,      // at the reject level, but selected as a half-open probe
    kReject,     // at the reject level: shed
  };

  // Sliding outcome window size.
  static constexpr size_t kWindow = 64;
  // Outcomes the window must hold before its failure rate is acted on.
  // Every level move clears the window, so this is also the cooldown
  // between moves (one bad window cannot sprint up the ladder).
  static constexpr size_t kMinSamples = 16;
  // Failure rate at or above which the breaker escalates one level.
  static constexpr double kTripThreshold = 0.5;
  // Failure rate at or below which it de-escalates one level.
  static constexpr double kClearThreshold = 0.1;
  // Ladder levels: 0 = healthy, kRejectLevel = reject.
  static constexpr uint32_t kRejectLevel = 4;
  // At the reject level, every kProbeInterval-th Admit() is let through as
  // a half-open probe.
  static constexpr size_t kProbeInterval = 8;

  CircuitBreaker() = default;

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  // Feeds one planning outcome into the window and applies the ladder
  // rules. Shed / rejected requests must NOT be recorded (a breaker fed by
  // its own rejections never recovers).
  void RecordSuccess() { Record(false); }
  void RecordFailure() { Record(true); }

  // Admission decision for one request at the current level.
  Admission Admit();

  // Current ladder level: 0 = full service, kRejectLevel = reject.
  uint32_t level() const { return level_.load(std::memory_order_acquire); }

  // Cumulative level escalations / de-escalations.
  uint64_t trips() const { return trips_.load(std::memory_order_relaxed); }
  uint64_t recoveries() const {
    return recoveries_.load(std::memory_order_relaxed);
  }

  // Failure rate over the current window (0 when empty).
  double failure_rate() const;

 private:
  void Record(bool failure);

  std::atomic<uint32_t> level_{0};
  std::atomic<uint64_t> trips_{0};
  std::atomic<uint64_t> recoveries_{0};

  mutable std::mutex mu_;
  // Ring buffer of the last kWindow outcomes (true = failure).
  std::bitset<kWindow> outcomes_;  // guarded by mu_
  size_t next_slot_ = 0;           // guarded by mu_
  size_t filled_ = 0;              // guarded by mu_
  size_t failures_ = 0;            // guarded by mu_
  size_t probe_counter_ = 0;       // guarded by mu_
};

}  // namespace vbr

#endif  // VBR_COMMON_CIRCUIT_BREAKER_H_
