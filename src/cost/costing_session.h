#ifndef VBR_COST_COSTING_SESSION_H_
#define VBR_COST_COSTING_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "cost/physical_plan.h"
#include "cq/query.h"
#include "engine/database.h"

namespace vbr {

// Exact sizes measured against one immutable Database, shared by every
// request costed against it (the planner keeps one per view snapshot; see
// DESIGN.md "Costing").
//
// Two kinds of measurement are memoized: |IR| of a connected set of
// subgoals (JoinSize) and the M2/M3 cost of a physical plan
// (ExecutePlan(...).TotalCost()). Each is keyed by a 128-bit fingerprint of
// a renaming-invariant encoding: predicates and constants by symbol,
// variables numbered by first occurrence. Renamed variants of one query
// therefore share entries.
//
// The table is fixed-capacity and 2-way set-associative (a store into a
// full set evicts its older entry), split into kShards mutex-guarded
// shards, each allocated on its first store, so an unused session costs
// about 1 KiB and a used one at most kShards * kSlotsPerShard * 24 bytes
// (96 KiB, 4096 entries) more.
//
// Only finished measurements are stored: one taken while the thread's
// ResourceGovernor is exhausted, or an aborted plan execution, may be
// partial and is not stored.
class CostingSession {
 public:
  static constexpr size_t kShards = 16;
  static constexpr size_t kSlotsPerShard = 256;

  struct Key {
    uint64_t hi = 0;
    uint64_t lo = 0;
  };

  CostingSession();
  ~CostingSession();
  CostingSession(const CostingSession&) = delete;
  CostingSession& operator=(const CostingSession&) = delete;

  std::optional<uint64_t> Lookup(const Key& key) const;
  void Store(const Key& key, uint64_t value);

 private:
  struct Slot {
    uint64_t hi = 0;  // hi == lo == 0 marks an empty slot
    uint64_t lo = 0;
    uint64_t value = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unique_ptr<Slot[]> slots;  // null until the first store
  };

  static size_t ShardIndex(const Key& key) { return key.hi % kShards; }
  // First slot of the key's two-slot set; slot 0 of a set is its newer.
  // Bit 0 of lo is always set (it keeps keys off the empty marker), so the
  // set comes from the bits above it.
  static size_t SetIndex(const Key& key) {
    return 2 * ((key.lo >> 1) % (kSlotsPerShard / 2));
  }

  Shard shards_[kShards];
};

// Makes `session` the memo for costing against `db` on the calling thread,
// for the scope's lifetime; nests like GovernorScope. The measured-size
// functions below consult the session only when they are handed the very
// Database the innermost scope names. On exit the scope adds its hits and
// misses to the cost.memo_hits / cost.memo_misses counters.
class CostingScope {
 public:
  CostingScope(CostingSession* session, const Database& db);
  ~CostingScope();

  CostingScope(const CostingScope&) = delete;
  CostingScope& operator=(const CostingScope&) = delete;

 private:
  CostingSession* previous_session_;
  const Database* previous_db_;
  uint64_t previous_hits_;
  uint64_t previous_misses_;
};

// |IR| of subsets of one rewriting's subgoals against `db`, for the M2
// subset DP. A subset is split into variable-disjoint components, whose
// sizes multiply (saturating at SIZE_MAX); each component's size comes from
// the scoped session or from one JoinSize call.
class IrSizer {
 public:
  IrSizer(const ConjunctiveQuery& rewriting, const Database& db);

  // |IR| of the subgoals whose bits are set in `mask` (non-zero).
  size_t operator()(uint32_t mask) const;

 private:
  // |IR| of a connected subset.
  size_t ConnectedSize(uint32_t mask) const;

  const ConjunctiveQuery& rewriting_;
  const Database& db_;
  // Subgoals sharing a variable with subgoal i, as a bit mask.
  std::vector<uint32_t> neighbors_;
};

// ExecutePlan(plan, db).TotalCost(), from the scoped session when it holds
// the plan's cost.
size_t MeasuredPlanCost(const PhysicalPlan& plan, const Database& db);

}  // namespace vbr

#endif  // VBR_COST_COSTING_SESSION_H_
