#include "common/budget.h"

#include "common/fault_injection.h"

namespace vbr {
namespace {

thread_local ResourceGovernor* g_current_governor = nullptr;

// KeepGoing() reads the clock once per this many calls; deadlines therefore
// overshoot by a bounded amount of hot-loop work, not by a syscall per node.
constexpr uint32_t kDeadlineCheckStride = 256;

BudgetKind BudgetKindForFault(FaultKind fault) {
  switch (fault) {
    case FaultKind::kBudgetExhausted:
      return BudgetKind::kWork;
    case FaultKind::kAllocFailure:
      return BudgetKind::kMemory;
    case FaultKind::kStageAbort:
      return BudgetKind::kInjected;
  }
  return BudgetKind::kInjected;
}

uint64_t DeriveSearchNodeCap(const ResourceLimits& limits) {
  if (limits.search_node_cap != 0) return limits.search_node_cap;
  // A single backtracking search should never consume more nodes than the
  // whole run's work budget allows.
  return limits.work_limit;
}

// The stricter of two limits, where a value <= 0 means "unset".
template <typename T>
T Stricter(T a, T b) {
  if (a <= 0) return b;
  if (b <= 0) return a;
  return a < b ? a : b;
}

}  // namespace

ResourceLimits ResourceLimits::StricterOf(const ResourceLimits& other) const {
  ResourceLimits merged;
  merged.deadline_ms = Stricter(deadline_ms, other.deadline_ms);
  merged.work_limit = Stricter(work_limit, other.work_limit);
  merged.memory_limit_bytes =
      Stricter(memory_limit_bytes, other.memory_limit_bytes);
  merged.search_node_cap = Stricter(search_node_cap, other.search_node_cap);
  return merged;
}

const char* BudgetKindName(BudgetKind kind) {
  switch (kind) {
    case BudgetKind::kNone:
      return "none";
    case BudgetKind::kDeadline:
      return "deadline";
    case BudgetKind::kWork:
      return "work";
    case BudgetKind::kMemory:
      return "memory";
    case BudgetKind::kInjected:
      return "injected";
  }
  return "?";
}

ResourceGovernor::ResourceGovernor(const ResourceLimits& limits)
    : limits_(limits),
      search_node_cap_(DeriveSearchNodeCap(limits)),
      start_(std::chrono::steady_clock::now()),
      deadline_(limits.deadline_ms > 0
                    ? start_ + std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       limits.deadline_ms))
                    : start_) {}

bool ResourceGovernor::ChargeMemory(uint64_t bytes, const char* site) {
  uint64_t total =
      memory_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (limits_.memory_limit_bytes != 0 && total > limits_.memory_limit_bytes) {
    NoteExhausted(BudgetKind::kMemory, site);
  }
  return !exhausted();
}

bool ResourceGovernor::CheckPoint(const char* site) {
  if (exhausted()) return false;
  if (!ConsultFaults(site)) return false;
  if (limits_.work_limit != 0 && work_used() > limits_.work_limit) {
    NoteExhausted(BudgetKind::kWork, site);
    return false;
  }
  if (limits_.memory_limit_bytes != 0 &&
      memory_used() > limits_.memory_limit_bytes) {
    NoteExhausted(BudgetKind::kMemory, site);
    return false;
  }
  if (limits_.deadline_ms > 0 && !CheckDeadlineNow(site)) return false;
  return true;
}

bool ResourceGovernor::KeepGoing(const char* site) {
  if (exhausted()) return false;
  if (!ConsultFaults(site)) return false;
  // Intentionally no work-counter check here: work decisions are taken only
  // at the serial CheckPoint sites, so a hot loop never cuts itself short on
  // the shared counter. The deadline is inherently timing-based, so checking
  // it here loses nothing.
  if (limits_.deadline_ms > 0) {
    uint32_t tick =
        deadline_ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (tick % kDeadlineCheckStride == 0 && !CheckDeadlineNow(site)) {
      return false;
    }
  }
  return true;
}

void ResourceGovernor::NoteExhausted(BudgetKind kind, const char* site) {
  int expected = static_cast<int>(BudgetKind::kNone);
  if (kind_.compare_exchange_strong(expected, static_cast<int>(kind),
                                    std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(site_mu_);
    site_ = site;
  }
}

BudgetExhaustion ResourceGovernor::exhaustion() const {
  BudgetExhaustion out;
  out.kind = kind();
  if (out.kind != BudgetKind::kNone) {
    std::lock_guard<std::mutex> lock(site_mu_);
    out.site = site_;
  }
  return out;
}

double ResourceGovernor::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

double ResourceGovernor::remaining_ms() const {
  if (limits_.deadline_ms <= 0) return 1e18;
  double left = std::chrono::duration<double, std::milli>(
                    deadline_ - std::chrono::steady_clock::now())
                    .count();
  return left > 0 ? left : 0;
}

ResourceGovernor* ResourceGovernor::Current() { return g_current_governor; }

bool ResourceGovernor::CheckDeadlineNow(const char* site) {
  if (std::chrono::steady_clock::now() >= deadline_) {
    NoteExhausted(BudgetKind::kDeadline, site);
    return false;
  }
  return true;
}

bool ResourceGovernor::ConsultFaults(const char* site) {
  if (auto fault = FaultCheck(site)) {
    NoteExhausted(BudgetKindForFault(*fault), site);
    return false;
  }
  return true;
}

GovernorScope::GovernorScope(ResourceGovernor* governor)
    : previous_(g_current_governor) {
  g_current_governor = governor;
}

GovernorScope::~GovernorScope() { g_current_governor = previous_; }

ScopedGovernor::ScopedGovernor(const ResourceLimits& limits) {
  if (limits.unlimited()) return;
  governor_.emplace(limits);
  scope_.emplace(&*governor_);
}

}  // namespace vbr
