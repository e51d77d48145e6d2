#include "cost/m3_optimizer.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "common/budget.h"
#include "common/check.h"
#include "cost/costing_session.h"
#include "cost/supplementary.h"
#include "cq/term.h"
#include "rewrite/rewriting.h"

namespace vbr {

namespace {

// Explores keep/drop decisions along one fixed order.
class DropSearch {
 public:
  DropSearch(const ConjunctiveQuery& query, const ViewSet& views,
             const Database& view_db, std::vector<size_t> order)
      : query_(query),
        views_(views),
        view_db_(view_db),
        order_(std::move(order)) {}

  // Returns the best plan for `rewriting` under this order; accumulates the
  // number of evaluated plans into *plans_evaluated.
  void Run(const ConjunctiveQuery& rewriting, size_t* plans_evaluated,
           M3OptimizationResult* best) {
    drops_.assign(order_.size(), {});
    in_state_.clear();
    Recurse(rewriting, 0, plans_evaluated, best);
  }

 private:
  // Decide the fate of each state variable at `step`, then recurse to the
  // next step; at the end evaluate the plan.
  void Recurse(const ConjunctiveQuery& p, size_t step,
               size_t* plans_evaluated, M3OptimizationResult* best) {
    if (step == order_.size()) {
      // One work unit per complete plan measured; the search runs serially
      // on the caller thread, so the checkpoint is deterministic. The best
      // plan so far was fully measured, so an abort keeps a genuine result.
      if (ResourceGovernor* const governor = ResourceGovernor::Current()) {
        governor->ChargeWork(1);
        if (!governor->CheckPoint("cost.m3")) {
          best->aborted = true;
          return;
        }
      }
      PhysicalPlan plan;
      plan.rewriting = p;
      plan.order = order_;
      plan.drop_after = drops_;
      const size_t cost = MeasuredPlanCost(plan, view_db_);
      ++*plans_evaluated;
      if (cost < best->cost) {
        best->cost = cost;
        best->plan = std::move(plan);
      }
      return;
    }
    if (best->aborted) return;
    // State variables after joining this step's subgoal.
    std::vector<Term> entered;
    for (Term t : p.subgoal(order_[step]).args()) {
      if (t.is_variable() && in_state_.insert(t).second) {
        entered.push_back(t);
      }
    }
    std::vector<Term> candidates(in_state_.begin(), in_state_.end());
    std::sort(candidates.begin(), candidates.end());

    // Forced SR drops, and the renaming-safe optional ones.
    std::vector<Term> optional_drops;
    std::vector<Term> sr_dropped;
    for (Term v : candidates) {
      if (SrDroppable(p, order_, step, v)) {
        drops_[step].push_back(v);
        sr_dropped.push_back(v);
        in_state_.erase(v);
      } else if (!p.head().Mentions(v)) {
        optional_drops.push_back(v);
      }
    }
    ChooseOptional(p, step, optional_drops, 0, plans_evaluated, best);
    // Restore the state for the caller.
    for (Term v : sr_dropped) in_state_.insert(v);
    for (Term v : entered) in_state_.erase(v);
    drops_[step].clear();
  }

  // Branch over dropping / keeping each renaming-safe optional variable.
  void ChooseOptional(const ConjunctiveQuery& p, size_t step,
                      const std::vector<Term>& optional, size_t index,
                      size_t* plans_evaluated, M3OptimizationResult* best) {
    if (best->aborted) return;
    if (index == optional.size()) {
      Recurse(p, step + 1, plans_evaluated, best);
      return;
    }
    const Term v = optional[index];
    // Keep branch.
    ChooseOptional(p, step, optional, index + 1, plans_evaluated, best);
    if (in_state_.count(v) == 0) return;  // Dropped by an outer frame.
    // Drop branch, if renaming v in the processed prefix stays equivalent.
    const Term fresh = FreshVar(v.ToString());
    const ConjunctiveQuery renamed = RenameInPrefix(p, order_, step, v, fresh);
    if (!IsEquivalentRewriting(renamed, query_, views_)) return;
    drops_[step].push_back(fresh);
    in_state_.erase(v);
    ChooseOptional(renamed, step, optional, index + 1, plans_evaluated, best);
    in_state_.insert(v);
    drops_[step].pop_back();
  }

  const ConjunctiveQuery& query_;
  const ViewSet& views_;
  const Database& view_db_;
  const std::vector<size_t> order_;
  std::vector<std::vector<Term>> drops_;
  std::unordered_set<Term, TermHash> in_state_;
};

}  // namespace

M3OptimizationResult OptimizeM3(const ConjunctiveQuery& rewriting,
                                const ConjunctiveQuery& query,
                                const ViewSet& views,
                                const Database& view_db,
                                const TraceContext& trace) {
  TraceSpan span(trace, "optimize_m3");
  const size_t n = rewriting.num_subgoals();
  VBR_CHECK_MSG(n >= 1 && n <= 8,
                "M3 optimization enumerates all orders; use <= 8 subgoals");
  M3OptimizationResult best;
  best.cost = std::numeric_limits<size_t>::max();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  size_t evaluated = 0;
  do {
    DropSearch search(query, views, view_db, order);
    search.Run(rewriting, &evaluated, &best);
  } while (!best.aborted &&
           std::next_permutation(order.begin(), order.end()));
  best.plans_evaluated = evaluated;
  if (best.aborted) span.AddAttribute("aborted", true);
  span.AddAttribute("subgoals", static_cast<uint64_t>(n));
  span.AddAttribute("cost", static_cast<uint64_t>(best.cost));
  span.AddAttribute("plans_evaluated", static_cast<uint64_t>(evaluated));
  return best;
}

}  // namespace vbr
