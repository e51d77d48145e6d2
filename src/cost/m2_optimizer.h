#ifndef VBR_COST_M2_OPTIMIZER_H_
#define VBR_COST_M2_OPTIMIZER_H_

#include <cstddef>
#include <vector>

#include "common/trace.h"
#include "cost/physical_plan.h"
#include "cq/query.h"
#include "engine/database.h"

namespace vbr {

// Join-order optimization under cost model M2. Because IR_i retains all
// attributes, its size depends only on the SET of the first i subgoals, so
// an exact optimum falls out of dynamic programming over subsets (the
// System-R idea specialized to M2's cost).
//
// Sizes are measured exactly by evaluating joins against the materialized
// view relations: this plays the role of the optimizer's statistics. The
// same DP also runs over estimated sizes (OptimizeOrderM2Estimated in
// cost/estimator.h).

struct M2OptimizationResult {
  PhysicalPlan plan;       // Best order, no drop annotations.
  size_t cost = 0;         // M2 cost of the best order.
  size_t subsets_costed = 0;  // Number of distinct IR sizes measured.
  // True when the thread's ResourceGovernor stopped the DP early; the plan
  // is then the identity order with cost SIZE_MAX (worst possible), so a
  // budget-starved candidate loses every cost comparison but never crashes.
  bool aborted = false;
};

// Widest rewriting the exact M2 search takes: the subset DP allocates and
// walks 2^n states. Callers that cost request-controlled rewritings check
// this first (the planner reports wider ones as unsupported).
inline constexpr size_t kMaxM2Subgoals = 20;

// Exact M2-optimal order for `rewriting` against `view_db`. The rewriting
// must have at most kMaxM2Subgoals subgoals. With an active `trace`,
// emits an "optimize_m2" span recording the chosen cost and the number of
// subsets costed.
M2OptimizationResult OptimizeOrderM2(const ConjunctiveQuery& rewriting,
                                     const Database& view_db,
                                     const TraceContext& trace = {});

// M2 cost of one specific order (sum of view sizes and IR sizes).
size_t CostOfOrderM2(const ConjunctiveQuery& rewriting,
                     const std::vector<size_t>& order,
                     const Database& view_db);

}  // namespace vbr

#endif  // VBR_COST_M2_OPTIMIZER_H_
