#include "cost/filter_advisor.h"

#include "cost/m2_optimizer.h"

namespace vbr {

FilterAdvice AdviseFilters(const ConjunctiveQuery& rewriting,
                           const std::vector<Atom>& candidates,
                           const Database& view_db) {
  FilterAdvice advice;
  advice.improved = rewriting;
  advice.base_cost = OptimizeOrderM2(rewriting, view_db).cost;
  advice.improved_cost = advice.base_cost;

  std::vector<bool> used(candidates.size(), false);
  bool progress = true;
  while (progress && advice.improved.num_subgoals() < kMaxM2Subgoals) {
    progress = false;
    size_t best_candidate = candidates.size();
    size_t best_cost = advice.improved_cost;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      std::vector<Atom> body = advice.improved.body();
      body.push_back(candidates[i]);
      const size_t cost =
          OptimizeOrderM2(advice.improved.WithBody(std::move(body)), view_db)
              .cost;
      if (cost < best_cost) {
        best_cost = cost;
        best_candidate = i;
      }
    }
    if (best_candidate < candidates.size()) {
      std::vector<Atom> body = advice.improved.body();
      body.push_back(candidates[best_candidate]);
      advice.improved = advice.improved.WithBody(std::move(body));
      advice.filters_added.push_back(candidates[best_candidate]);
      advice.improved_cost = best_cost;
      used[best_candidate] = true;
      progress = true;
    }
  }
  return advice;
}

}  // namespace vbr
