#ifndef VBR_COMMON_FAULT_INJECTION_H_
#define VBR_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace vbr {

// Deterministic fault injection for tests.
//
// The resource-governance layer (common/budget.h) names every cooperative
// check site ("corecover.view_tuples", "cq.containment", ...). When the
// library is compiled with VBR_FAULT_INJECTION (the default dev/test
// configuration; release builds turn it off), each crossing of a site
// consults the process-wide FaultRegistry, and a test can arm a fault to
// fire at exactly the Nth crossing of a site:
//
//   FaultRegistry::Global().Arm("corecover.tuple_cores",
//                               FaultKind::kBudgetExhausted, 3);
//
// Fired faults surface as budget exhaustion on the governor active at the
// crossing (kBudgetExhausted -> work, kAllocFailure -> memory,
// kStageAbort -> injected), which makes every degradation path reachable
// deterministically — no timing, no huge inputs. Without an active governor
// a fired fault is a no-op (the crossing count still advances).
//
// Without VBR_FAULT_INJECTION, FaultCheck() is an inline constant and the
// whole mechanism compiles to nothing at the check sites.
//
// Crossing counts are global, so concurrent requests cross sites in a
// nondeterministic interleaving.

enum class FaultKind {
  kBudgetExhausted = 0,  // simulate the work budget running out
  kAllocFailure,         // simulate an allocation beyond the memory budget
  kStageAbort,           // force the enclosing stage to abort
};

const char* FaultKindName(FaultKind kind);

class FaultRegistry {
 public:
  static FaultRegistry& Global();

  FaultRegistry() = default;
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  // Fires `kind` at the `nth` (1-based) crossing of `site` after this call.
  // Re-arming a site replaces its previous fault. Arming activates crossing
  // bookkeeping (see Crossed()).
  void Arm(std::string_view site, FaultKind kind, uint64_t nth);
  void Disarm(std::string_view site);

  // Records sites as they are crossed even with nothing armed, so a test
  // can discover the site inventory of a workload (run once with recording,
  // then Arm each recorded site).
  void EnableRecording(bool enabled);

  // Disarms everything, clears crossing counts and recorded sites, and
  // turns recording off.
  void Reset();

  // Called by the governor at each check-site crossing. Fast path: when
  // nothing is armed and recording is off, a single relaxed atomic load.
  // Returns the fault to fire when this crossing is the armed Nth one.
  std::optional<FaultKind> Crossed(std::string_view site);

  // Sites crossed since the last Reset() (recording or armed), sorted.
  std::vector<std::string> SeenSites() const;
  uint64_t CrossingCount(std::string_view site) const;

 private:
  struct SiteState {
    uint64_t crossings = 0;
    bool armed = false;
    FaultKind kind = FaultKind::kBudgetExhausted;
    uint64_t fire_at = 0;  // crossing number that fires, 0 = never
  };

  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  std::map<std::string, SiteState, std::less<>> sites_;
  bool recording_ = false;
  size_t armed_count_ = 0;
};

#if defined(VBR_FAULT_INJECTION)
inline std::optional<FaultKind> FaultCheck(std::string_view site) {
  return FaultRegistry::Global().Crossed(site);
}
#else
inline std::optional<FaultKind> FaultCheck(std::string_view) {
  return std::nullopt;
}
#endif

}  // namespace vbr

#endif  // VBR_COMMON_FAULT_INJECTION_H_
