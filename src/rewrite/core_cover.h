#ifndef VBR_REWRITE_CORE_COVER_H_
#define VBR_REWRITE_CORE_COVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/trace.h"
#include "cq/query.h"
#include "rewrite/equivalence_classes.h"
#include "rewrite/tuple_core.h"
#include "rewrite/view_index.h"
#include "rewrite/view_tuple.h"

namespace vbr {

// The CoreCover algorithm (Section 4, Figure 4) and its CoreCover* variant
// (Section 5):
//
//   1. Minimize the query.
//   2. Compute the view tuples T(Q, V) on the canonical database.
//   3. Compute each tuple's tuple-core.
//   4. CoreCover: cover the query subgoals with a minimum number of
//      tuple-cores; each cover is a globally-minimal rewriting (GMR) — an
//      optimal rewriting under cost model M1.
//      CoreCover*: enumerate all minimal covers instead; these are all the
//      minimal rewritings over view tuples, the search space that is
//      guaranteed to contain an M2-optimal rewriting (Theorem 5.1).
//      Empty-core tuples are reported as filter candidates the optimizer may
//      add (rewriting P3 in the car-loc-part example).

// Outcome of a CoreCover / CoreCoverStar run.
enum class CoreCoverStatus {
  kOk = 0,
  // The minimized query has more subgoals than the 64-bit tuple-core
  // bitmask supports (see the contract in set_cover.h). The pipeline did
  // not run; the result carries the minimized query, an explanatory
  // `error`, and no rewritings.
  kUnsupportedQueryTooLarge,
  // The thread's ResourceGovernor (common/budget.h) ran out mid-pipeline.
  // The result carries everything completed before the budget died — every
  // returned rewriting corresponds to a genuine cover of genuine view tuples
  // — but the enumeration is incomplete: rewritings may be missing and the
  // returned ones may not be minimum. `result.exhaustion` says which budget
  // died and at which check site.
  kBudgetExhausted,
};

struct CoreCoverOptions {
  // Section 5.2: collapse views equivalent as queries to one representative
  // before computing view tuples.
  bool group_views = true;
  // Section 5.2: run the covering over tuple-core equivalence classes. The
  // returned rewritings use the class representatives; swap any member of
  // the same class to obtain further rewritings.
  bool group_view_tuples = true;
  // Cap on the number of rewritings returned.
  size_t max_rewritings = 1024;
  // Candidate view selection: restrict the pipeline to views that can
  // possibly contribute a view tuple (kCoverAll summary test) before any
  // per-view containment work runs. Sound — excluded views provably
  // produce zero tuples — so plans are byte-identical on or off; the
  // property suite pins that. `view_index` optionally supplies a prebuilt
  // index over `views` (the planner shares one per catalog snapshot);
  // when null the filter falls back to a linear summary scan, which still
  // skips the per-view minimization work of grouping.
  bool use_view_index = true;
  const ViewIndex* view_index = nullptr;
  // Debug cross-check: verify every returned rewriting's expansion is
  // equivalent to the query (Theorem 4.1 makes this redundant; tests use
  // it).
  bool verify_rewritings = false;
  // When a sink is attached, the run emits a "core_cover" span (a child of
  // trace.parent_id) with one child span per pipeline stage: minimize,
  // group_views, view_tuples, tuple_cores, set_cover, and verify. Inert by
  // default; the traced code costs one branch per stage when inert.
  TraceContext trace;
};

struct CoreCoverStats {
  size_t num_views = 0;
  // Views surviving candidate selection (== num_views when the filter is
  // off). The views-considered-vs-catalog-size ratio that makes catalog
  // scaling observable.
  size_t num_candidate_views = 0;
  size_t num_view_classes = 0;
  size_t num_view_tuples = 0;       // after view grouping, before tuple grouping
  size_t num_tuple_classes = 0;
  size_t num_nonempty_cores = 0;    // among class representatives
  size_t minimum_cover_size = 0;    // 0 when no rewriting exists
  double minimize_ms = 0;
  double view_tuple_ms = 0;
  double tuple_core_ms = 0;
  double cover_ms = 0;
  double total_ms = 0;
  // Per-stage work items: views searched for tuples, tuple-cores computed,
  // rewritings verified, top-level set-cover branches explored. Counts of
  // logical work, deterministic (the M2/M3 optimizers and the determinism
  // suite rely on that), unlike the wall-clock timings above.
  size_t view_tuple_tasks = 0;
  size_t tuple_core_tasks = 0;
  size_t verify_tasks = 0;
  size_t cover_branch_tasks = 0;
  // Always 1: the pipeline is serial. Kept so the VBIN Stats layout
  // (docs/FORMAT.md) is unchanged; stats decoded from a snapshot written
  // by an older build keep the value stored there.
  size_t threads_used = 1;
  // Governed work units charged to the run's ResourceGovernor (0 when the
  // run was ungoverned). Deterministic under a pure work budget.
  uint64_t work_used = 0;
  // True iff max_rewritings truncated the cover enumeration — the same
  // condition as CoreCoverResult::truncated, surfaced here so stats
  // consumers (Explain, metrics) cannot miss a silent cap.
  bool hit_rewriting_cap = false;
};

// One tuple of T(Q, V) with its core and class metadata.
struct AnnotatedViewTuple {
  ViewTuple tuple;
  TupleCore core;
  size_t class_id = 0;
  bool is_class_representative = false;
};

struct CoreCoverResult {
  // kOk unless the input is outside the supported fragment (e.g. more than
  // 64 subgoals after minimization). Unsupported inputs yield an empty
  // result with `error` set instead of aborting the process.
  CoreCoverStatus status = CoreCoverStatus::kOk;
  // Human-readable detail when status != kOk.
  std::string error;
  // True if at least one equivalent rewriting exists.
  bool has_rewriting = false;
  // The minimized query the machinery ran on (subgoal indices in cores
  // refer to this query's body).
  ConjunctiveQuery minimized_query;
  // The rewritings: all GMRs for CoreCover, all minimal rewritings over
  // view tuples for CoreCoverStar (capped by max_rewritings).
  std::vector<ConjunctiveQuery> rewritings;
  // Every view tuple with its core. Tuples of non-representative views are
  // not computed when group_views is set.
  std::vector<AnnotatedViewTuple> view_tuples;
  // Indices (into view_tuples) of empty-core tuples: candidate filtering
  // subgoals for the M2 optimizer.
  std::vector<size_t> filter_candidates;
  CoreCoverStats stats;
  bool truncated = false;
  // Which budget died and where, when status == kBudgetExhausted.
  BudgetExhaustion exhaustion;

  bool ok() const { return status == CoreCoverStatus::kOk; }
};

// Globally-minimal rewritings (optimal under M1).
CoreCoverResult CoreCover(const ConjunctiveQuery& query, const ViewSet& views,
                          const CoreCoverOptions& options = {});

// All minimal rewritings over view tuples (the M2 search space).
CoreCoverResult CoreCoverStar(const ConjunctiveQuery& query,
                              const ViewSet& views,
                              const CoreCoverOptions& options = {});

}  // namespace vbr

#endif  // VBR_REWRITE_CORE_COVER_H_
