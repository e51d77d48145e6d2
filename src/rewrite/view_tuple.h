#ifndef VBR_REWRITE_VIEW_TUPLE_H_
#define VBR_REWRITE_VIEW_TUPLE_H_

#include <cstddef>
#include <vector>

#include "cq/query.h"
#include "rewrite/canonical_db.h"

namespace vbr {

// A view tuple (Section 3.3): a tuple the view produces on the query's
// canonical database, with frozen constants restored to query variables.
// Lemma 3.2 shows every rewriting can be transformed to one whose subgoals
// are all view tuples, so these atoms are the building blocks of the search
// space.
struct ViewTuple {
  // The tuple as an atom over the view predicate; arguments are terms of
  // the (minimized) query.
  Atom atom;
  // Index of the defining view in the ViewSet passed to ComputeViewTuples.
  size_t view_index = 0;
};

// Computes T(Q, V): applies each view definition in `views` to the canonical
// database of `query` (which must be minimized by the caller for the
// CoreCover pipeline, though any safe query works) and thaws the results.
// Duplicate tuples from one view are deduplicated; the same atom produced by
// two different views yields two entries (they reference different view
// relations). Tuples are listed in view order.
std::vector<ViewTuple> ComputeViewTuples(const ConjunctiveQuery& query,
                                         const ViewSet& views);

}  // namespace vbr

#endif  // VBR_REWRITE_VIEW_TUPLE_H_
