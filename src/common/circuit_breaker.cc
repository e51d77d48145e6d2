#include "common/circuit_breaker.h"

namespace vbr {

void CircuitBreaker::Record(bool failure) {
  std::lock_guard<std::mutex> lock(mu_);
  if (filled_ == kWindow) {
    // Overwrite the oldest outcome.
    if (outcomes_[next_slot_]) --failures_;
  } else {
    ++filled_;
  }
  outcomes_[next_slot_] = failure;
  if (failure) ++failures_;
  next_slot_ = (next_slot_ + 1) % kWindow;

  if (filled_ < kMinSamples) return;
  const double rate =
      static_cast<double>(failures_) / static_cast<double>(filled_);
  const uint32_t level = level_.load(std::memory_order_relaxed);
  uint32_t next = level;
  if (rate >= kTripThreshold && level < kRejectLevel) {
    next = level + 1;
    trips_.fetch_add(1, std::memory_order_relaxed);
  } else if (rate <= kClearThreshold && level > 0) {
    next = level - 1;
    recoveries_.fetch_add(1, std::memory_order_relaxed);
  }
  if (next != level) {
    level_.store(next, std::memory_order_release);
    // A fresh window per level: outcomes observed under the old service
    // level do not describe the new one.
    outcomes_.reset();
    filled_ = 0;
    failures_ = 0;
  }
}

CircuitBreaker::Admission CircuitBreaker::Admit() {
  if (level_.load(std::memory_order_acquire) != kRejectLevel) {
    return Admission::kAdmit;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Re-check under the lock (the level may have just moved).
  if (level_.load(std::memory_order_relaxed) != kRejectLevel) {
    return Admission::kAdmit;
  }
  if (++probe_counter_ >= kProbeInterval) {
    probe_counter_ = 0;
    return Admission::kProbe;
  }
  return Admission::kReject;
}

double CircuitBreaker::failure_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return filled_ == 0
             ? 0.0
             : static_cast<double>(failures_) / static_cast<double>(filled_);
}

}  // namespace vbr
