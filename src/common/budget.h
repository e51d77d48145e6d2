#ifndef VBR_COMMON_BUDGET_H_
#define VBR_COMMON_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

namespace vbr {

// Resource-governed planning (see DESIGN.md "Resource governance").
//
// CoreCover's set-cover enumeration, the homomorphism searches it bottoms
// out in, and the M2/M3 optimizers are worst-case exponential, so a
// production planner must be able to bound one planning request by a
// wall-clock deadline, a work budget, and a memory budget. The
// ResourceGovernor carries those limits; the pipeline checks it
// cooperatively and winds down — it NEVER aborts the process. Aborted
// searches always report "not found", which every consumer treats as the
// conservative direction (a kept subgoal, a smaller tuple-core, a missing
// cover): exhaustion can hide rewritings but can never certify a wrong one.
//
// The governor is installed for the current thread with the RAII
// GovernorScope, and every check consults the calling thread's governor, so
// the whole pipeline below a scope observes the same budget without any API
// plumbing. A planning request's budget is exactly the governor installed
// around its planner call (ViewPlanner::Plan with PlanRequestOptions, or the
// PlanningService worker serving it).
//
// Determinism contract (tests/property/budget_determinism_test.cc): under a
// pure WORK budget (no deadline), governed results are byte-identical across
// runs. Two rules make that hold:
//
//  1. Decisions that consult the shared work counter happen only at SERIAL
//     checkpoints (CheckPoint) — stage boundaries in CoreCover, the
//     per-candidate costing loop — where the accumulated total is
//     deterministic. Hot loops use KeepGoing(), which never latches on
//     work.
//  2. An individual backtracking search is bounded by the deterministic
//     per-search node cap (search_node_cap), identical for every search
//     regardless of scheduling.
//
// Deadline checks may fire anywhere (KeepGoing included); wall-clock
// outcomes are explicitly not deterministic.

enum class BudgetKind {
  kNone = 0,
  kDeadline,  // wall-clock deadline passed
  kWork,      // cumulative work limit reached (or injected kBudgetExhausted)
  kMemory,    // tracked memory limit reached (or injected kAllocFailure)
  kInjected,  // forced by an injected kStageAbort fault
};

const char* BudgetKindName(BudgetKind kind);

struct ResourceLimits {
  // Wall-clock deadline for the governed region, 0 = unlimited.
  double deadline_ms = 0;
  // Cumulative work-unit limit, 0 = unlimited. One unit is roughly one
  // containment-mapping attempt, one view tuple generated, one set-cover or
  // tuple-core search node expanded, or one M2 subset costed.
  uint64_t work_limit = 0;
  // Tracked-allocation limit (intermediate join results), 0 = unlimited.
  uint64_t memory_limit_bytes = 0;
  // Node cap for one backtracking search (homomorphism, tuple-core, one
  // set-cover branch). 0 derives it: work_limit when a work budget is set,
  // otherwise unlimited.
  uint64_t search_node_cap = 0;

  bool unlimited() const {
    return deadline_ms <= 0 && work_limit == 0 && memory_limit_bytes == 0 &&
           search_node_cap == 0;
  }

  // Field-wise stricter-wins merge: a field unset on one side takes the
  // other side's value; a field set on both takes the smaller. The merge is
  // order-free, so a chain of caps gives one result whatever its order.
  ResourceLimits StricterOf(const ResourceLimits& other) const;
};

// Where and why a budget died.
struct BudgetExhaustion {
  BudgetKind kind = BudgetKind::kNone;
  std::string site;
};

class ResourceGovernor {
 public:
  explicit ResourceGovernor(const ResourceLimits& limits);

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  // ---- Accounting (no abort decision) ----

  // Adds `n` work units to the shared counter.
  void ChargeWork(uint64_t n) {
    work_used_.fetch_add(n, std::memory_order_relaxed);
  }

  // Tracks `bytes` of governed allocation; latches kMemory exhaustion at
  // `site` when the total crosses the limit. Returns false when exhausted.
  bool ChargeMemory(uint64_t bytes, const char* site);
  void ReleaseMemory(uint64_t bytes) {
    memory_used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  // ---- Cooperative checks ----

  // Deterministic checkpoint for SERIAL pipeline points (stage boundaries,
  // per-candidate costing): latches exhaustion on the work counter, the
  // memory counter, the deadline, and injected faults. Returns true to
  // continue.
  bool CheckPoint(const char* site);

  // Cheap cooperative check for hot loops: observes already-latched
  // exhaustion, the deadline (clock reads amortized), and injected faults —
  // never latches on the work counter (work decisions belong to the serial
  // checkpoints, rule 1 above). Returns true to continue.
  bool KeepGoing(const char* site);

  // First-wins exhaustion latch (used by the checks above and by fault
  // injection mapping).
  void NoteExhausted(BudgetKind kind, const char* site);

  // ---- Introspection ----

  bool exhausted() const {
    return kind_.load(std::memory_order_acquire) !=
           static_cast<int>(BudgetKind::kNone);
  }
  BudgetKind kind() const {
    return static_cast<BudgetKind>(kind_.load(std::memory_order_acquire));
  }
  // Snapshot of kind + site (site is stable once exhausted() is true).
  BudgetExhaustion exhaustion() const;

  uint64_t work_used() const {
    return work_used_.load(std::memory_order_relaxed);
  }
  uint64_t memory_used() const {
    return memory_used_.load(std::memory_order_relaxed);
  }
  // Deterministic per-search node cap (see ResourceLimits::search_node_cap);
  // 0 = unlimited.
  uint64_t search_node_cap() const { return search_node_cap_; }
  const ResourceLimits& limits() const { return limits_; }

  double elapsed_ms() const;
  // Wall-clock left before the deadline; a large positive value when no
  // deadline is set, clamped at 0 once passed.
  double remaining_ms() const;

  // The governor installed for the calling thread, or nullptr. Ungoverned
  // code paths cost exactly this thread-local load and a null check.
  static ResourceGovernor* Current();

 private:
  friend class GovernorScope;

  bool CheckDeadlineNow(const char* site);
  bool ConsultFaults(const char* site);

  const ResourceLimits limits_;
  const uint64_t search_node_cap_;
  const std::chrono::steady_clock::time_point start_;
  const std::chrono::steady_clock::time_point deadline_;  // start_ if none
  std::atomic<uint64_t> work_used_{0};
  std::atomic<uint64_t> memory_used_{0};
  std::atomic<uint32_t> deadline_ticks_{0};  // amortizes clock reads
  std::atomic<int> kind_{static_cast<int>(BudgetKind::kNone)};
  mutable std::mutex site_mu_;
  std::string site_;  // guarded by site_mu_, written once
};

// Installs `governor` as the calling thread's current governor for the
// scope's lifetime; nests (the previous governor is restored on exit).
// Installing nullptr shields a region from an outer governor — the planner
// uses that to run grace-budget certification under a fresh governor.
class GovernorScope {
 public:
  explicit GovernorScope(ResourceGovernor* governor);
  ~GovernorScope();

  GovernorScope(const GovernorScope&) = delete;
  GovernorScope& operator=(const GovernorScope&) = delete;

 private:
  ResourceGovernor* previous_;
};

// A fresh governor with `limits`, installed for the scope's lifetime (its
// deadline runs from construction) — or nothing when `limits` is
// unlimited, so the caller's governor, if any, stays current. This is how
// a planning request's budget is installed around the planner call.
class ScopedGovernor {
 public:
  explicit ScopedGovernor(const ResourceLimits& limits);

 private:
  std::optional<ResourceGovernor> governor_;
  std::optional<GovernorScope> scope_;
};

}  // namespace vbr

#endif  // VBR_COMMON_BUDGET_H_
