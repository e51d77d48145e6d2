#include "cost/m2_optimizer.h"

#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/budget.h"
#include "common/check.h"
#include "engine/evaluator.h"

namespace vbr {

namespace {

// Measures |IR(S)| for a subset mask of subgoals, caching results.
class IrSizeCache {
 public:
  IrSizeCache(const ConjunctiveQuery& rewriting, const Database& view_db)
      : rewriting_(rewriting), view_db_(view_db) {}

  size_t Get(uint32_t mask) {
    auto it = cache_.find(mask);
    if (it != cache_.end()) return it->second;
    std::vector<Atom> atoms;
    for (size_t i = 0; i < rewriting_.num_subgoals(); ++i) {
      if (mask & (uint32_t{1} << i)) atoms.push_back(rewriting_.subgoal(i));
    }
    const size_t size = JoinSize(atoms, view_db_);
    cache_.emplace(mask, size);
    return size;
  }

  size_t entries() const { return cache_.size(); }

 private:
  const ConjunctiveQuery& rewriting_;
  const Database& view_db_;
  std::unordered_map<uint32_t, size_t> cache_;
};

size_t RelationSize(const ConjunctiveQuery& rewriting, size_t subgoal,
                    const Database& view_db) {
  const Relation* rel =
      view_db.Find(rewriting.subgoal(subgoal).predicate());
  return rel == nullptr ? 0 : rel->size();
}

}  // namespace

M2OptimizationResult OptimizeOrderM2(const ConjunctiveQuery& rewriting,
                                     const Database& view_db,
                                     const TraceContext& trace) {
  TraceSpan span(trace, "optimize_m2");
  const size_t n = rewriting.num_subgoals();
  VBR_CHECK_MSG(n >= 1, "cannot optimize an empty rewriting");
  VBR_CHECK_MSG(n <= kMaxM2Subgoals, "subset DP is limited to 20 subgoals");
  IrSizeCache ir(rewriting, view_db);

  const uint32_t full = (n == 32) ? ~uint32_t{0} : (uint32_t{1} << n) - 1;
  constexpr size_t kInf = std::numeric_limits<size_t>::max();
  std::vector<size_t> best(full + 1, kInf);
  std::vector<int> last(full + 1, -1);
  best[0] = 0;
  ResourceGovernor* const governor = ResourceGovernor::Current();
  bool aborted = false;
  for (uint32_t mask = 1; mask <= full; ++mask) {
    // One work unit per subset costed; the DP runs serially on the caller
    // thread, so the checkpoint latches a work budget deterministically.
    if (governor != nullptr) {
      governor->ChargeWork(1);
      if (!governor->CheckPoint("cost.m2")) {
        aborted = true;
        break;
      }
    }
    for (size_t g = 0; g < n; ++g) {
      const uint32_t bit = uint32_t{1} << g;
      if (!(mask & bit)) continue;
      const size_t prev = best[mask ^ bit];
      if (prev == kInf) continue;
      const size_t step_cost =
          RelationSize(rewriting, g, view_db) + ir.Get(mask);
      const size_t total = prev + step_cost;
      if (total < best[mask]) {
        best[mask] = total;
        last[mask] = static_cast<int>(g);
      }
    }
  }

  M2OptimizationResult result;
  result.subsets_costed = ir.entries();
  result.plan.rewriting = rewriting;
  if (aborted) {
    result.aborted = true;
    result.cost = kInf;
    result.plan.order.resize(n);
    std::iota(result.plan.order.begin(), result.plan.order.end(), 0);
    span.AddAttribute("aborted", true);
  } else {
    result.cost = best[full];
    std::vector<size_t> reversed;
    for (uint32_t mask = full; mask != 0;) {
      const int g = last[mask];
      VBR_CHECK(g >= 0);
      reversed.push_back(static_cast<size_t>(g));
      mask ^= uint32_t{1} << g;
    }
    result.plan.order.assign(reversed.rbegin(), reversed.rend());
  }
  span.AddAttribute("subgoals", static_cast<uint64_t>(n));
  span.AddAttribute("cost", static_cast<uint64_t>(result.cost));
  span.AddAttribute("subsets_costed",
                    static_cast<uint64_t>(result.subsets_costed));
  return result;
}

size_t CostOfOrderM2(const ConjunctiveQuery& rewriting,
                     const std::vector<size_t>& order,
                     const Database& view_db) {
  VBR_CHECK(order.size() == rewriting.num_subgoals());
  IrSizeCache ir(rewriting, view_db);
  size_t total = 0;
  uint32_t mask = 0;
  for (size_t g : order) {
    mask |= uint32_t{1} << g;
    total += RelationSize(rewriting, g, view_db) + ir.Get(mask);
  }
  return total;
}

}  // namespace vbr
