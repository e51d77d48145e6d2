#include "common/circuit_breaker.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace vbr {
namespace {

constexpr size_t kWindow = CircuitBreaker::kWindow;
constexpr size_t kMinSamples = CircuitBreaker::kMinSamples;
constexpr uint32_t kRejectLevel = CircuitBreaker::kRejectLevel;
constexpr size_t kProbeInterval = CircuitBreaker::kProbeInterval;

void RecordFailures(CircuitBreaker& breaker, size_t n) {
  for (size_t i = 0; i < n; ++i) breaker.RecordFailure();
}

void RecordSuccesses(CircuitBreaker& breaker, size_t n) {
  for (size_t i = 0; i < n; ++i) breaker.RecordSuccess();
}

// Drives a fresh breaker to the reject level: kMinSamples failures per
// rung, kMinSamples * kRejectLevel in all.
void WalkToReject(CircuitBreaker& breaker) {
  RecordFailures(breaker, kMinSamples * kRejectLevel);
  ASSERT_EQ(breaker.level(), kRejectLevel);
}

TEST(CircuitBreakerTest, StartsHealthyAndAdmits) {
  CircuitBreaker breaker;
  EXPECT_EQ(breaker.level(), 0u);
  EXPECT_EQ(breaker.Admit(), CircuitBreaker::Admission::kAdmit);
  EXPECT_EQ(breaker.trips(), 0u);
  EXPECT_DOUBLE_EQ(breaker.failure_rate(), 0.0);
}

TEST(CircuitBreakerTest, SustainedFailureWalksTheLadderUp) {
  CircuitBreaker breaker;
  // kMinSamples failures trip one level, and the window resets, so each
  // further rung takes kMinSamples more.
  RecordFailures(breaker, kMinSamples);
  EXPECT_EQ(breaker.level(), 1u);
  EXPECT_EQ(breaker.trips(), 1u);
  RecordFailures(breaker, kMinSamples * (kRejectLevel - 1));
  EXPECT_EQ(breaker.level(), kRejectLevel);
  EXPECT_EQ(breaker.trips(), kRejectLevel);
  // Already at the top: more failures do not overshoot.
  RecordFailures(breaker, 2 * kWindow);
  EXPECT_EQ(breaker.level(), kRejectLevel);
  EXPECT_EQ(breaker.trips(), kRejectLevel);
}

TEST(CircuitBreakerTest, SustainedSuccessWalksBackDown) {
  CircuitBreaker breaker;
  WalkToReject(breaker);
  RecordSuccesses(breaker, kMinSamples);
  EXPECT_EQ(breaker.level(), kRejectLevel - 1);
  EXPECT_EQ(breaker.recoveries(), 1u);
  RecordSuccesses(breaker, kMinSamples * (kRejectLevel - 1));
  EXPECT_EQ(breaker.level(), 0u);
  EXPECT_EQ(breaker.recoveries(), kRejectLevel);
}

TEST(CircuitBreakerTest, MixedTrafficBelowThresholdHoldsLevel) {
  CircuitBreaker breaker;
  // 25% failures: above clear (10%), below trip (50%) — level holds, over
  // two full windows.
  for (size_t round = 0; round < kWindow / 2; ++round) {
    breaker.RecordFailure();
    breaker.RecordSuccess();
    breaker.RecordSuccess();
    breaker.RecordSuccess();
  }
  EXPECT_EQ(breaker.level(), 0u);
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreakerTest, RejectLevelProbesPeriodically) {
  CircuitBreaker breaker;
  WalkToReject(breaker);
  // Every kProbeInterval-th admission is a half-open probe.
  std::vector<CircuitBreaker::Admission> admissions;
  for (size_t i = 0; i < 3 * kProbeInterval; ++i) {
    admissions.push_back(breaker.Admit());
  }
  int probes = 0;
  for (size_t i = 0; i < admissions.size(); ++i) {
    if ((i + 1) % kProbeInterval == 0) {
      EXPECT_EQ(admissions[i], CircuitBreaker::Admission::kProbe) << i;
      ++probes;
    } else {
      EXPECT_EQ(admissions[i], CircuitBreaker::Admission::kReject) << i;
    }
  }
  EXPECT_EQ(probes, 3);
}

TEST(CircuitBreakerTest, ProbeSuccessesRecoverFromReject) {
  CircuitBreaker breaker;
  WalkToReject(breaker);
  // Simulate the service loop: probes get through and succeed. At the
  // reject level only one admission in kProbeInterval is served.
  size_t served = 0;
  const size_t max_admissions = kProbeInterval * kMinSamples * kRejectLevel;
  for (size_t i = 0; i < max_admissions && breaker.level() > 0; ++i) {
    if (breaker.Admit() != CircuitBreaker::Admission::kReject) {
      breaker.RecordSuccess();
      ++served;
    }
  }
  EXPECT_EQ(breaker.level(), 0u);
  // Recovery required genuine traffic, not rejections.
  EXPECT_GE(served, kMinSamples * kRejectLevel);
  EXPECT_EQ(breaker.recoveries(), kRejectLevel);
}

TEST(CircuitBreakerTest, CooldownPreventsSprintingTheLadder) {
  CircuitBreaker breaker;
  // A failure rate of 1.0 does not move the level until the window holds
  // kMinSamples outcomes, counted from construction...
  RecordFailures(breaker, kMinSamples - 1);
  EXPECT_EQ(breaker.level(), 0u);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.level(), 1u);
  EXPECT_EQ(breaker.trips(), 1u);
  // ...and from each move, which clears the window.
  RecordFailures(breaker, kMinSamples - 1);
  EXPECT_EQ(breaker.level(), 1u);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.level(), 2u);
  EXPECT_EQ(breaker.trips(), 2u);
}

TEST(CircuitBreakerTest, WindowEvictsOldOutcomes) {
  CircuitBreaker breaker;
  // At the reject level failures cannot move the breaker, so a full window
  // of them is observable.
  WalkToReject(breaker);
  RecordFailures(breaker, kWindow);
  EXPECT_DOUBLE_EQ(breaker.failure_rate(), 1.0);
  // Half a window of successes evicts the oldest half of the failures (a
  // rate of 0.5 is above the clear threshold, so the level holds).
  RecordSuccesses(breaker, kWindow / 2);
  EXPECT_DOUBLE_EQ(breaker.failure_rate(), 0.5);
  EXPECT_EQ(breaker.level(), kRejectLevel);
}

TEST(CircuitBreakerTest, DeterministicTrajectoryForAFixedSequence) {
  // The level trajectory is a pure function of the outcome sequence.
  auto run = [] {
    CircuitBreaker breaker;
    std::vector<uint32_t> trajectory;
    for (size_t i = 0; i < 4 * kWindow; ++i) {
      if (i % 3 == 0) {
        breaker.RecordSuccess();
      } else {
        breaker.RecordFailure();
      }
      trajectory.push_back(breaker.level());
    }
    return trajectory;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace vbr
