// The seeded socket-fault layer (net/chaos_socket.h), driven through its
// interposition points over a socketpair: the schedule replays from the
// seed, differs across seeds, never touches an untracked descriptor, and
// stops at Disable().
#include "net/chaos_socket.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "net/socket.h"

namespace vbr::net {
namespace {

// Chaos is process-global; never leave it on when a test exits early.
struct ChaosGuard {
  ~ChaosGuard() { ChaosSocket::Disable(); }
};

using StatsArray = std::array<uint64_t, 9>;

StatsArray Flatten(const ChaosSocket::Stats& s) {
  return {s.short_reads,      s.short_writes,      s.read_eagains,
          s.write_eagains,    s.write_delays,      s.read_disconnects,
          s.write_disconnects, s.accept_resets,    s.connect_failures};
}

// One character per crossing: 'D' disconnect, 'E' spurious EAGAIN, 'S'
// short transfer, '.' untouched (a write delay also reads '.': it only
// sleeps, and shows in the stats).
char Code(const ChaosVerdict& verdict) {
  if (verdict.forced.has_value()) {
    return verdict.forced->status == IoStatus::kWouldBlock ? 'E' : 'D';
  }
  return verdict.max_len == 1 ? 'S' : '.';
}

struct Schedule {
  std::string reads;
  std::string writes;
  std::string accepts;   // 'R' reset, '.' kept
  std::string connects;  // 'F' failed, '.' kept
  StatsArray stats{};
};

// Enables the layer with `seed` and crosses each interposition point
// `crossings` times on a tracked socketpair end.
Schedule RunSchedule(uint64_t seed, size_t crossings) {
  OwnedFd a, b;
  std::string error;
  EXPECT_TRUE(SocketPair(&a, &b, &error)) << error;
  ChaosSocket::Enable(seed);
  ChaosSocket::Track(a.get());
  Schedule s;
  for (size_t i = 0; i < crossings; ++i) {
    s.reads += Code(ChaosSocket::BeforeRead(a.get(), 64));
    s.writes += Code(ChaosSocket::BeforeWrite(a.get(), 64));
    s.accepts += ChaosSocket::OnAccept(a.get()) ? 'R' : '.';
    s.connects += ChaosSocket::OnConnect() ? 'F' : '.';
  }
  s.stats = Flatten(ChaosSocket::stats());
  ChaosSocket::Disable();
  return s;
}

constexpr size_t kCrossings = 1000;

TEST(ChaosSocketTest, SameSeedReplaysTheSameSchedule) {
  ChaosGuard guard;
  const Schedule first = RunSchedule(7, kCrossings);
  const Schedule second = RunSchedule(7, kCrossings);
  EXPECT_EQ(first.reads, second.reads);
  EXPECT_EQ(first.writes, second.writes);
  EXPECT_EQ(first.accepts, second.accepts);
  EXPECT_EQ(first.connects, second.connects);
  EXPECT_EQ(first.stats, second.stats);
  // Every failure mode fires somewhere in 1000 crossings.
  for (size_t i = 0; i < first.stats.size(); ++i) {
    EXPECT_GT(first.stats[i], 0u) << "stats field " << i;
  }
}

TEST(ChaosSocketTest, AnotherSeedGivesAnotherSchedule) {
  ChaosGuard guard;
  const Schedule seven = RunSchedule(7, kCrossings);
  const Schedule eight = RunSchedule(8, kCrossings);
  EXPECT_NE(seven.reads, eight.reads);
  EXPECT_NE(seven.writes, eight.writes);
  EXPECT_NE(seven.accepts, eight.accepts);
  EXPECT_NE(seven.connects, eight.connects);
}

// Seed 1's schedule, pinned (the first 64 read and write verdicts and the
// stats over 1000 crossings of each point): a change to the fault mix, the
// salts or the draw shows up here rather than as a silently different soak.
TEST(ChaosSocketTest, SeedOneScheduleIsPinned) {
  ChaosGuard guard;
  const Schedule s = RunSchedule(1, kCrossings);
  EXPECT_EQ(s.reads.substr(0, 64),
            "..E..E..........SS...............E...........S.S................");
  EXPECT_EQ(s.writes.substr(0, 64),
            "S..................E..........E...E.........................S..E");
  EXPECT_EQ(s.stats, (StatsArray{66, 62, 33, 45, 16, 8, 9, 54, 61}));
}

TEST(ChaosSocketTest, UntrackedDescriptorIsNeverPerturbed) {
  ChaosGuard guard;
  OwnedFd a, b;
  std::string error;
  ASSERT_TRUE(SocketPair(&a, &b, &error)) << error;
  ChaosSocket::Enable(7);
  ASSERT_FALSE(ChaosSocket::IsTracked(b.get()));
  for (size_t i = 0; i < kCrossings; ++i) {
    const ChaosVerdict read = ChaosSocket::BeforeRead(b.get(), 64);
    const ChaosVerdict write = ChaosSocket::BeforeWrite(b.get(), 64);
    ASSERT_FALSE(read.forced.has_value()) << i;
    ASSERT_EQ(read.max_len, SIZE_MAX) << i;
    ASSERT_FALSE(write.forced.has_value()) << i;
    ASSERT_EQ(write.max_len, SIZE_MAX) << i;
  }
  // Real I/O through the socket primitives moves every byte.
  const std::string payload(64, 'x');
  for (int i = 0; i < 100; ++i) {
    const IoResult wrote = WriteSome(b.get(), payload.data(), payload.size());
    ASSERT_EQ(wrote.status, IoStatus::kOk);
    ASSERT_EQ(wrote.n, payload.size());
    char buf[64];
    const IoResult got = ReadSome(a.get(), buf, sizeof(buf));
    ASSERT_EQ(got.status, IoStatus::kOk);
    ASSERT_EQ(got.n, sizeof(buf));
  }
  EXPECT_EQ(Flatten(ChaosSocket::stats()), StatsArray{});
}

TEST(ChaosSocketTest, NothingFiresAfterDisable) {
  ChaosGuard guard;
  OwnedFd a, b, c, d;
  std::string error;
  ASSERT_TRUE(SocketPair(&a, &b, &error)) << error;
  ASSERT_TRUE(SocketPair(&c, &d, &error)) << error;
  ChaosSocket::Enable(7);
  ChaosSocket::Track(a.get());
  ChaosSocket::Track(b.get());
  ChaosSocket::Track(c.get());
  // Faults fire while enabled (on c, so a and b stay usable)...
  for (size_t i = 0; i < kCrossings; ++i) {
    ChaosSocket::BeforeRead(c.get(), 64);
    ChaosSocket::BeforeWrite(c.get(), 64);
  }
  const StatsArray before = Flatten(ChaosSocket::stats());
  ASSERT_NE(before, StatsArray{});
  ChaosSocket::Disable();
  // ...and none after: the tracked set is gone and the counters hold.
  EXPECT_FALSE(ChaosSocket::enabled());
  EXPECT_FALSE(ChaosSocket::IsTracked(a.get()));
  EXPECT_FALSE(ChaosSocket::IsTracked(b.get()));
  EXPECT_FALSE(ChaosSocket::IsTracked(c.get()));
  for (size_t i = 0; i < kCrossings; ++i) {
    const ChaosVerdict read = ChaosSocket::BeforeRead(a.get(), 64);
    const ChaosVerdict write = ChaosSocket::BeforeWrite(a.get(), 64);
    ASSERT_FALSE(read.forced.has_value()) << i;
    ASSERT_EQ(read.max_len, SIZE_MAX) << i;
    ASSERT_FALSE(write.forced.has_value()) << i;
    ASSERT_EQ(write.max_len, SIZE_MAX) << i;
  }
  const std::string payload(64, 'x');
  for (int i = 0; i < 100; ++i) {
    const IoResult wrote = WriteSome(a.get(), payload.data(), payload.size());
    ASSERT_EQ(wrote.status, IoStatus::kOk);
    ASSERT_EQ(wrote.n, payload.size());
    char buf[64];
    const IoResult got = ReadSome(b.get(), buf, sizeof(buf));
    ASSERT_EQ(got.status, IoStatus::kOk);
    ASSERT_EQ(got.n, sizeof(buf));
  }
  EXPECT_EQ(Flatten(ChaosSocket::stats()), before);
}

}  // namespace
}  // namespace vbr::net
