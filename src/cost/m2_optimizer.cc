#include "cost/m2_optimizer.h"

#include <cmath>
#include <limits>
#include <numeric>

#include "common/budget.h"
#include "common/check.h"
#include "cost/costing_session.h"
#include "cost/estimator.h"

namespace vbr {

namespace {

// The subgoals of `rewriting` whose bits are set in `mask`, in index order.
std::vector<Atom> SubgoalsIn(const ConjunctiveQuery& rewriting,
                             uint32_t mask) {
  std::vector<Atom> atoms;
  for (size_t i = 0; i < rewriting.num_subgoals(); ++i) {
    if (mask & (uint32_t{1} << i)) atoms.push_back(rewriting.subgoal(i));
  }
  return atoms;
}

// |g| for each subgoal g of `rewriting` (0 for a missing relation).
std::vector<size_t> RelationSizes(const ConjunctiveQuery& rewriting,
                                  const Database& view_db) {
  std::vector<size_t> sizes;
  for (const Atom& g : rewriting.body()) {
    const Relation* rel = view_db.Find(g.predicate());
    sizes.push_back(rel == nullptr ? 0 : rel->size());
  }
  return sizes;
}

size_t RoundCost(size_t cost) { return cost; }
size_t RoundCost(double cost) {
  return static_cast<size_t>(std::llround(cost));
}

// Measured costs saturate at SIZE_MAX: a factored |IR| can, where the
// enumeration it replaces would never have finished.
size_t AddCost(size_t a, size_t b) {
  return b > std::numeric_limits<size_t>::max() - a
             ? std::numeric_limits<size_t>::max()
             : a + b;
}
double AddCost(double a, double b) { return a + b; }

// The M2 subset DP. `relation_size[g]` is |g| and `ir_size(mask)` is |IR|
// of the subgoals in `mask`; Cost is size_t for measured sizes and double
// for estimated ones. Masks are visited in increasing order, each charged
// one governor work unit and measured once; on a cost tie the
// lowest-numbered last subgoal wins.
template <typename Cost, typename IrSize>
M2OptimizationResult SubsetDp(const ConjunctiveQuery& rewriting,
                              const std::vector<Cost>& relation_size,
                              IrSize ir_size) {
  const size_t n = rewriting.num_subgoals();
  VBR_CHECK_MSG(n >= 1, "cannot optimize an empty rewriting");
  VBR_CHECK_MSG(n <= kMaxM2Subgoals, "subset DP is limited to 20 subgoals");
  const uint32_t full = (uint32_t{1} << n) - 1;
  std::vector<Cost> best(full + 1, Cost{0});
  std::vector<int> last(full + 1, -1);
  ResourceGovernor* const governor = ResourceGovernor::Current();

  M2OptimizationResult result;
  result.plan.rewriting = rewriting;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    // The DP runs serially on the caller thread, so the checkpoint latches
    // a work budget deterministically.
    if (governor != nullptr) {
      governor->ChargeWork(1);
      if (!governor->CheckPoint("cost.m2")) {
        result.aborted = true;
        break;
      }
    }
    const Cost ir = ir_size(mask);
    ++result.subsets_costed;
    for (size_t g = 0; g < n; ++g) {
      const uint32_t bit = uint32_t{1} << g;
      if (!(mask & bit)) continue;
      const Cost total =
          AddCost(AddCost(best[mask ^ bit], relation_size[g]), ir);
      if (last[mask] < 0 || total < best[mask]) {
        best[mask] = total;
        last[mask] = static_cast<int>(g);
      }
    }
  }

  if (result.aborted) {
    result.cost = std::numeric_limits<size_t>::max();
    result.plan.order.resize(n);
    std::iota(result.plan.order.begin(), result.plan.order.end(), 0);
    return result;
  }
  result.cost = RoundCost(best[full]);
  std::vector<size_t> reversed;
  for (uint32_t mask = full; mask != 0;) {
    const int g = last[mask];
    VBR_CHECK(g >= 0);
    reversed.push_back(static_cast<size_t>(g));
    mask ^= uint32_t{1} << g;
  }
  result.plan.order.assign(reversed.rbegin(), reversed.rend());
  return result;
}

}  // namespace

M2OptimizationResult OptimizeOrderM2(const ConjunctiveQuery& rewriting,
                                     const Database& view_db,
                                     const TraceContext& trace) {
  TraceSpan span(trace, "optimize_m2");
  const IrSizer ir_size(rewriting, view_db);
  M2OptimizationResult result =
      SubsetDp(rewriting, RelationSizes(rewriting, view_db), ir_size);
  if (result.aborted) span.AddAttribute("aborted", true);
  span.AddAttribute("subgoals",
                    static_cast<uint64_t>(rewriting.num_subgoals()));
  span.AddAttribute("cost", static_cast<uint64_t>(result.cost));
  span.AddAttribute("subsets_costed",
                    static_cast<uint64_t>(result.subsets_costed));
  return result;
}

M2OptimizationResult OptimizeOrderM2Estimated(
    const ConjunctiveQuery& rewriting, const StatsCatalog& catalog) {
  std::vector<double> relation_size;
  for (const Atom& g : rewriting.body()) {
    const RelationStats* stats = catalog.Find(g.predicate());
    relation_size.push_back(stats == nullptr ? 0.0 : stats->rows);
  }
  return SubsetDp(rewriting, relation_size, [&](uint32_t mask) {
    return EstimateJoinSize(SubgoalsIn(rewriting, mask), catalog);
  });
}

size_t CostOfOrderM2(const ConjunctiveQuery& rewriting,
                     const std::vector<size_t>& order,
                     const Database& view_db) {
  VBR_CHECK(order.size() == rewriting.num_subgoals());
  const std::vector<size_t> relation_size = RelationSizes(rewriting, view_db);
  const IrSizer ir_size(rewriting, view_db);
  size_t total = 0;
  uint32_t mask = 0;
  for (size_t g : order) {
    mask |= uint32_t{1} << g;
    total = AddCost(AddCost(total, relation_size[g]), ir_size(mask));
  }
  return total;
}

}  // namespace vbr
