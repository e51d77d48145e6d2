#ifndef VBR_COST_FILTER_ADVISOR_H_
#define VBR_COST_FILTER_ADVISOR_H_

#include <vector>

#include "cq/query.h"
#include "engine/database.h"

namespace vbr {

// Section 5's counterintuitive observation: ADDING a view subgoal can make a
// rewriting cheaper under M2 when the extra relation is selective (rewriting
// P3 beating P2 in the car-loc-part example when v3 is small). The advisor
// greedily appends candidate filter atoms (typically the empty-core view
// tuples CoreCover reports) while the M2-optimal cost decreases, and never
// past the M2 search's kMaxM2Subgoals (the input must be within it).

struct FilterAdvice {
  // The input rewriting with the accepted filters appended.
  ConjunctiveQuery improved;
  // The filter atoms that were accepted, in acceptance order.
  std::vector<Atom> filters_added;
  // M2-optimal cost before and after.
  size_t base_cost = 0;
  size_t improved_cost = 0;
};

FilterAdvice AdviseFilters(const ConjunctiveQuery& rewriting,
                           const std::vector<Atom>& candidates,
                           const Database& view_db);

}  // namespace vbr

#endif  // VBR_COST_FILTER_ADVISOR_H_
