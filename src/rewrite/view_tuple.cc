#include "rewrite/view_tuple.h"

#include <unordered_set>

#include "common/budget.h"
#include "common/check.h"
#include "cq/homomorphism.h"

namespace vbr {

namespace {

// Appends the tuples of one view on the canonical database to `out`,
// deduplicated per view.
void AppendTuplesOfView(const CanonicalDatabase& canonical,
                        const AtomIndex& facts_index, const View& view,
                        size_t view_index, std::vector<ViewTuple>* out) {
  VBR_CHECK_MSG(view.IsSafe(), "view definitions must be safe");
  VBR_CHECK_MSG(!view.HasBuiltins(),
                "view tuples require comparison-free views");
  std::unordered_set<Atom, AtomHash> seen;
  ResourceGovernor* const governor = ResourceGovernor::Current();
  ForEachHomomorphism(
      view.body(), facts_index, {}, [&](const Substitution& h) {
        const Atom tuple = canonical.Thaw(h.Apply(view.head()));
        if (seen.insert(tuple).second) {
          out->push_back(ViewTuple{tuple, view_index});
          // Every generated tuple is governed work; an aborted enumeration
          // leaves a prefix of genuine tuples, which downstream stages may
          // only under-cover with.
          if (governor != nullptr) {
            governor->ChargeWork(1);
            return governor->KeepGoing("corecover.view_tuples");
          }
        }
        return true;
      });
}

}  // namespace

std::vector<ViewTuple> ComputeViewTuples(const ConjunctiveQuery& query,
                                         const ViewSet& views) {
  const CanonicalDatabase canonical(query);
  // One index over the canonical facts, shared read-only by every view's
  // search (the per-view per-predicate hash rebuild used to dominate this
  // stage for large view sets).
  const AtomIndex facts_index(canonical.facts());
  std::vector<ViewTuple> result;
  for (size_t vi = 0; vi < views.size(); ++vi) {
    AppendTuplesOfView(canonical, facts_index, views[vi], vi, &result);
  }
  return result;
}

}  // namespace vbr
