#ifndef VBR_COST_SUPPLEMENTARY_H_
#define VBR_COST_SUPPLEMENTARY_H_

#include <vector>

#include "cost/physical_plan.h"
#include "cq/query.h"
#include "engine/database.h"

namespace vbr {

// Attribute dropping under cost model M3 (Section 6).
//
// The classical supplementary-relation (SR) rule drops a variable after step
// i iff it appears neither in the head nor in any later subgoal. The paper's
// generalized (GSR) heuristic additionally drops a variable Y that IS used
// later whenever renaming Y's occurrences in the already-processed prefix to
// a fresh variable leaves the rewriting equivalent to the query — i.e., the
// equality with the later occurrence was never needed (Example 6.1).

// The SR rule: `var` may leave the state after step `step` of `order` iff
// the head of `p` does not mention it and no later subgoal does.
bool SrDroppable(const ConjunctiveQuery& p, const std::vector<size_t>& order,
                 size_t step, Term var);

// `p` with `var` renamed to `replacement` inside the subgoals
// order[0..step] only: the GSR test of whether a later occurrence's
// equality is needed.
ConjunctiveQuery RenameInPrefix(const ConjunctiveQuery& p,
                                const std::vector<size_t>& order, size_t step,
                                Term var, Term replacement);

// SR drop annotations for `order` over `rewriting`: drop_after[k] holds the
// variables whose last use (outside the head) is subgoal order[k].
std::vector<std::vector<Term>> SupplementaryDrops(
    const ConjunctiveQuery& rewriting, const std::vector<size_t>& order);

struct GeneralizedDropsResult {
  // Per-step drop lists (SR drops plus renaming-safe drops).
  std::vector<std::vector<Term>> drop_after;
  // The renaming-safe drops alone: extra_drops[k] ⊆ drop_after[k] lists the
  // variables the SR rule would have retained.
  std::vector<std::vector<Term>> extra_drops;
  // The rewriting after the accumulated renamings; evaluating it with
  // drop_after computes the original answer.
  ConjunctiveQuery renamed_rewriting;
};

// The paper's GSR heuristic applied greedily along `order`: at each step,
// every variable is dropped if the SR rule allows it, or if renaming it in
// the processed prefix keeps the (renamed) rewriting an equivalent rewriting
// of `query`. Renamings accumulate left to right so later tests see earlier
// decisions.
GeneralizedDropsResult GeneralizedDrops(const ConjunctiveQuery& rewriting,
                                        const ConjunctiveQuery& query,
                                        const ViewSet& views,
                                        const std::vector<size_t>& order);

// Cost-model-M3 comparison of the SR and GSR strategies for one rewriting.
struct M3Comparison {
  PhysicalPlan sr_plan;
  PhysicalPlan gsr_plan;
  size_t sr_cost = 0;
  size_t gsr_cost = 0;
};

// Evaluates both strategies over every subgoal order (n <= 8) and returns
// each strategy's best plan. The GSR plan's rewriting may be the renamed
// variant; both compute the same answer.
M3Comparison CompareM3Strategies(const ConjunctiveQuery& rewriting,
                                 const ConjunctiveQuery& query,
                                 const ViewSet& views,
                                 const Database& view_db);

}  // namespace vbr

#endif  // VBR_COST_SUPPLEMENTARY_H_
