#ifndef VBR_COST_ESTIMATOR_H_
#define VBR_COST_ESTIMATOR_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "cost/m2_optimizer.h"
#include "cq/query.h"
#include "engine/database.h"

namespace vbr {

// Cardinality estimation for the M2 optimizer.
//
// The exact optimizer (m2_optimizer.h) measures every intermediate size by
// evaluating the join — perfect statistics, but a cost the paper's setting
// assigns to the optimizer's estimator instead. This module provides the
// classical System-R estimate: per-relation row counts and per-column
// distinct counts, joined under the independence and containment-of-values
// assumptions. An ablation benchmark compares the plans the estimate picks
// against the measured optimum.

struct RelationStats {
  size_t rows = 0;
  // Distinct value count per column.
  std::vector<size_t> distinct;
};

// Statistics collected from a concrete database (one scan per relation).
class StatsCatalog {
 public:
  static StatsCatalog Collect(const Database& db);

  // Stats for `predicate`, or nullptr when the relation is absent (treated
  // as empty by the estimator).
  const RelationStats* Find(Symbol predicate) const;

 private:
  std::unordered_map<Symbol, RelationStats> stats_;
};

// Estimated size of the join of `atoms` with all variables retained:
// the product of row counts, divided by (a) max-distinct for each extra
// equality a repeated variable induces and (b) distinct for each constant
// selection. Missing relations estimate to zero; the result is clamped to
// at least one row otherwise.
double EstimateJoinSize(const std::vector<Atom>& atoms,
                        const StatsCatalog& catalog);

// The M2 subset DP of OptimizeOrderM2 (m2_optimizer.cc) over ESTIMATED
// intermediate sizes, under the same kMaxM2Subgoals limit. The returned
// cost is the estimated cost, rounded; evaluate CostOfOrderM2 on the
// returned order to get its true cost.
M2OptimizationResult OptimizeOrderM2Estimated(
    const ConjunctiveQuery& rewriting, const StatsCatalog& catalog);

}  // namespace vbr

#endif  // VBR_COST_ESTIMATOR_H_
