#ifndef VBR_COMMON_BACKOFF_H_
#define VBR_COMMON_BACKOFF_H_

#include <algorithm>
#include <cstdint>

namespace vbr {

// Jittered exponential retry backoff.
//
// DelayMs is a pure function of (policy, attempt, seed): the exponential
// schedule base * multiplier^(attempt-1), capped at max_ms, with the top
// `jitter` fraction randomized by a splitmix64 hash of (seed, attempt).
// There is no hidden state and no clock, so retry schedules are exactly
// reproducible from the seed — net::ResilientClient seeds it with its
// backoff_seed XOR the request id, which makes every retry delay in a
// deterministic test replayable (see tests/common/backoff_test.cc).
struct BackoffPolicy {
  // Total attempts, including the first; 1 disables retries entirely.
  uint32_t max_attempts = 3;
  // Delay before the first retry (attempt 1 in DelayMs terms).
  double base_ms = 1.0;
  double multiplier = 2.0;
  // Cap applied before jitter.
  double max_ms = 100.0;
  // Fraction of the capped delay that is randomized: the delay spans
  // [(1 - jitter) * d, d]. 0 = fully deterministic schedule.
  double jitter = 0.5;

  // Delay before retry number `attempt` (1-based; attempt 0 returns 0).
  double DelayMs(uint32_t attempt, uint64_t seed) const {
    if (attempt == 0) return 0;
    double d = base_ms;
    for (uint32_t i = 1; i < attempt && d < max_ms; ++i) d *= multiplier;
    d = std::min(d, max_ms);
    if (jitter <= 0) return d;
    // splitmix64 over (seed, attempt); uniform in [0, 1).
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (attempt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const double u =
        static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
    const double j = std::min(jitter, 1.0);
    return d * (1.0 - j) + d * j * u;
  }
};

}  // namespace vbr

#endif  // VBR_COMMON_BACKOFF_H_
