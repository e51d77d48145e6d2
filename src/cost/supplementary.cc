#include "cost/supplementary.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "common/check.h"
#include "cq/substitution.h"
#include "cq/term.h"
#include "rewrite/rewriting.h"

namespace vbr {

namespace {

// Variables of `atom` as a set.
void InsertVars(const Atom& atom, std::unordered_set<Term, TermHash>* out) {
  for (Term t : atom.args()) {
    if (t.is_variable()) out->insert(t);
  }
}

}  // namespace

bool SrDroppable(const ConjunctiveQuery& p, const std::vector<size_t>& order,
                 size_t step, Term var) {
  if (p.head().Mentions(var)) return false;
  for (size_t j = step + 1; j < order.size(); ++j) {
    if (p.subgoal(order[j]).Mentions(var)) return false;
  }
  return true;
}

ConjunctiveQuery RenameInPrefix(const ConjunctiveQuery& p,
                                const std::vector<size_t>& order, size_t step,
                                Term var, Term replacement) {
  Substitution subst;
  subst.Bind(var, replacement);
  std::vector<Atom> body = p.body();
  for (size_t j = 0; j <= step; ++j) {
    body[order[j]] = subst.Apply(body[order[j]]);
  }
  return p.WithBody(std::move(body));
}

std::vector<std::vector<Term>> SupplementaryDrops(
    const ConjunctiveQuery& rewriting, const std::vector<size_t>& order) {
  VBR_CHECK(order.size() == rewriting.num_subgoals());
  std::vector<std::vector<Term>> drops(order.size());
  std::unordered_set<Term, TermHash> in_state;
  for (size_t k = 0; k < order.size(); ++k) {
    InsertVars(rewriting.subgoal(order[k]), &in_state);
    std::vector<Term> dropped;
    for (Term v : in_state) {
      if (SrDroppable(rewriting, order, k, v)) dropped.push_back(v);
    }
    std::sort(dropped.begin(), dropped.end());
    for (Term v : dropped) in_state.erase(v);
    drops[k] = std::move(dropped);
  }
  return drops;
}

GeneralizedDropsResult GeneralizedDrops(const ConjunctiveQuery& rewriting,
                                        const ConjunctiveQuery& query,
                                        const ViewSet& views,
                                        const std::vector<size_t>& order) {
  VBR_CHECK(order.size() == rewriting.num_subgoals());
  GeneralizedDropsResult result;
  result.drop_after.resize(order.size());
  result.extra_drops.resize(order.size());
  result.renamed_rewriting = rewriting;

  std::unordered_set<Term, TermHash> in_state;
  for (size_t k = 0; k < order.size(); ++k) {
    InsertVars(result.renamed_rewriting.subgoal(order[k]), &in_state);
    // Deterministic order for reproducible plans.
    std::vector<Term> candidates(in_state.begin(), in_state.end());
    std::sort(candidates.begin(), candidates.end());
    for (Term v : candidates) {
      if (SrDroppable(result.renamed_rewriting, order, k, v)) {
        // The classical supplementary-relation drop.
        result.drop_after[k].push_back(v);
        in_state.erase(v);
        continue;
      }
      if (result.renamed_rewriting.head().Mentions(v)) continue;
      // The paper's heuristic: rename v in the processed prefix; if the
      // renamed query is still an equivalent rewriting, the equality with
      // the later occurrence was unnecessary and v can leave the state.
      const Term fresh = FreshVar(v.ToString());
      const ConjunctiveQuery renamed =
          RenameInPrefix(result.renamed_rewriting, order, k, v, fresh);
      if (IsEquivalentRewriting(renamed, query, views)) {
        result.renamed_rewriting = renamed;
        result.drop_after[k].push_back(fresh);
        result.extra_drops[k].push_back(fresh);
        in_state.erase(v);
        // `fresh` never enters in_state: it is dropped immediately.
      }
    }
  }
  return result;
}

M3Comparison CompareM3Strategies(const ConjunctiveQuery& rewriting,
                                 const ConjunctiveQuery& query,
                                 const ViewSet& views,
                                 const Database& view_db) {
  const size_t n = rewriting.num_subgoals();
  VBR_CHECK_MSG(n >= 1 && n <= 8,
                "M3 comparison enumerates all orders; use <= 8 subgoals");
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  M3Comparison best;
  best.sr_cost = std::numeric_limits<size_t>::max();
  best.gsr_cost = std::numeric_limits<size_t>::max();
  do {
    PhysicalPlan sr;
    sr.rewriting = rewriting;
    sr.order = order;
    sr.drop_after = SupplementaryDrops(rewriting, order);
    const size_t sr_cost = ExecutePlan(sr, view_db).TotalCost();
    if (sr_cost < best.sr_cost) {
      best.sr_cost = sr_cost;
      best.sr_plan = sr;
    }

    const GeneralizedDropsResult gsr_drops =
        GeneralizedDrops(rewriting, query, views, order);
    PhysicalPlan gsr;
    gsr.rewriting = gsr_drops.renamed_rewriting;
    gsr.order = order;
    gsr.drop_after = gsr_drops.drop_after;
    const size_t gsr_cost = ExecutePlan(gsr, view_db).TotalCost();
    if (gsr_cost < best.gsr_cost) {
      best.gsr_cost = gsr_cost;
      best.gsr_plan = gsr;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

}  // namespace vbr
