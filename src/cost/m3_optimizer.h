#ifndef VBR_COST_M3_OPTIMIZER_H_
#define VBR_COST_M3_OPTIMIZER_H_

#include <cstddef>

#include "common/trace.h"
#include "cost/physical_plan.h"
#include "cq/query.h"
#include "engine/database.h"

namespace vbr {

// Cost-based optimization under M3 — the "improved optimizer" the paper's
// Section 6.2 sketches. The GSR heuristic identifies which attributes CAN
// be dropped (renaming-safe), but dropping a renaming-safe attribute
// removes an equality and may inflate later intermediates, so the choice
// should be cost-based. This optimizer enumerates join orders and, per
// order, every keep/drop decision over the renaming-safe candidates
// (classical supplementary drops are always taken: removing an unused
// column never grows a set-semantics state), evaluating each plan's true
// M3 cost against the view database.
//
// Exponential in (orders x safe candidates); intended for the paper-scale
// plans (<= 8 subgoals) where it is exact.

struct M3OptimizationResult {
  // The cheapest plan found. Its rewriting may be a renamed variant of the
  // input (renamings make dropped equalities explicit); it computes the
  // same answer.
  PhysicalPlan plan;
  size_t cost = 0;
  // Number of complete physical plans whose cost was measured.
  size_t plans_evaluated = 0;
  // True when the thread's ResourceGovernor stopped the enumeration early.
  // The plan is then the best of the plans evaluated so far (each fully
  // measured, so it is genuine), or cost SIZE_MAX when none completed.
  bool aborted = false;
};

// Widest rewriting the planner sends to OptimizeM3; wider M3 plans take the
// M2 order plus supplementary-relation drops instead (the search is
// exponential in the width).
inline constexpr size_t kMaxM3Subgoals = 6;

// With an active `trace`, emits an "optimize_m3" span recording the chosen
// cost and the number of complete plans evaluated.
M3OptimizationResult OptimizeM3(const ConjunctiveQuery& rewriting,
                                const ConjunctiveQuery& query,
                                const ViewSet& views,
                                const Database& view_db,
                                const TraceContext& trace = {});

}  // namespace vbr

#endif  // VBR_COST_M3_OPTIMIZER_H_
