#include "rewrite/core_cover.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/budget.h"
#include "common/check.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "cq/containment.h"
#include "rewrite/rewriting.h"
#include "rewrite/set_cover.h"

namespace vbr {

namespace {

enum class CoverMode { kMinimum, kMinimal };

// Accumulates one finished run into the process-wide registry (the per-run
// numbers stay in CoreCoverStats; the registry carries process totals).
void RecordRunMetrics(const CoreCoverResult& result) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* const runs = registry.GetCounter("corecover.runs");
  static Counter* const unsupported =
      registry.GetCounter("corecover.unsupported");
  static Counter* const budget_aborts =
      registry.GetCounter("corecover.budget_aborts");
  static Counter* const view_tuples =
      registry.GetCounter("corecover.view_tuples");
  static Counter* const tuple_cores =
      registry.GetCounter("corecover.tuple_cores");
  static Counter* const covers =
      registry.GetCounter("corecover.covers_enumerated");
  static Counter* const candidate_views =
      registry.GetCounter("corecover.candidate_views");
  static Counter* const catalog_views =
      registry.GetCounter("corecover.catalog_views");
  static Histogram* const minimize_us =
      registry.GetHistogram("corecover.stage.minimize_us");
  static Histogram* const view_tuple_us =
      registry.GetHistogram("corecover.stage.view_tuple_us");
  static Histogram* const tuple_core_us =
      registry.GetHistogram("corecover.stage.tuple_core_us");
  static Histogram* const cover_us =
      registry.GetHistogram("corecover.stage.cover_us");
  static Histogram* const total_us =
      registry.GetHistogram("corecover.stage.total_us");
  runs->Increment();
  if (result.status == CoreCoverStatus::kUnsupportedQueryTooLarge) {
    unsupported->Increment();
  }
  if (result.status == CoreCoverStatus::kBudgetExhausted) {
    budget_aborts->Increment();
  }
  view_tuples->Add(result.stats.num_view_tuples);
  candidate_views->Add(result.stats.num_candidate_views);
  catalog_views->Add(result.stats.num_views);
  tuple_cores->Add(result.stats.tuple_core_tasks);
  covers->Add(result.rewritings.size());
  const auto to_us = [](double ms) {
    return ms <= 0 ? uint64_t{0} : static_cast<uint64_t>(ms * 1e3);
  };
  minimize_us->Record(to_us(result.stats.minimize_ms));
  view_tuple_us->Record(to_us(result.stats.view_tuple_ms));
  tuple_core_us->Record(to_us(result.stats.tuple_core_ms));
  cover_us->Record(to_us(result.stats.cover_ms));
  total_us->Record(to_us(result.stats.total_ms));
}

CoreCoverResult RunCoreCover(const ConjunctiveQuery& query,
                             const ViewSet& views,
                             const CoreCoverOptions& options,
                             CoverMode mode) {
  VBR_CHECK_MSG(query.IsSafe(), "CoreCover requires a safe query");
  VBR_CHECK_MSG(!query.HasBuiltins(),
                "CoreCover requires a comparison-free query");
  Timer total_timer;
  CoreCoverResult result;
  result.stats.num_views = views.size();

  TraceSpan run_span(options.trace, "core_cover");
  run_span.AddAttribute("mode",
                        mode == CoverMode::kMinimum ? "minimum" : "minimal");
  run_span.AddAttribute("num_views", static_cast<uint64_t>(views.size()));

  // The run is governed when the caller installed a ResourceGovernor
  // (planner deadlines / budgets, see common/budget.h). Each stage boundary
  // below is a serial checkpoint; a failed checkpoint finalizes the result
  // with whatever sound partial output earlier stages produced.
  ResourceGovernor* const governor = ResourceGovernor::Current();
  const auto budget_ok = [&](const char* site) {
    return governor == nullptr || governor->CheckPoint(site);
  };
  // Stamps budget bookkeeping, the final status, trace attributes, and
  // process metrics. Every return path funnels through here.
  const auto finalize = [&] {
    result.stats.hit_rewriting_cap = result.truncated;
    if (governor != nullptr) {
      result.stats.work_used = governor->work_used();
      if (governor->exhausted() && result.status == CoreCoverStatus::kOk) {
        result.status = CoreCoverStatus::kBudgetExhausted;
        result.exhaustion = governor->exhaustion();
        result.error = std::string("budget exhausted (") +
                       BudgetKindName(result.exhaustion.kind) + " at " +
                       result.exhaustion.site + ")";
      }
    }
    result.stats.total_ms = total_timer.ElapsedMillis();
    const char* status_name = "ok";
    if (result.status == CoreCoverStatus::kUnsupportedQueryTooLarge) {
      status_name = "unsupported_query_too_large";
    } else if (result.status == CoreCoverStatus::kBudgetExhausted) {
      status_name = "budget_exhausted";
    }
    run_span.AddAttribute("status", status_name);
    if (result.status == CoreCoverStatus::kBudgetExhausted) {
      run_span.AddAttribute("budget_kind",
                            BudgetKindName(result.exhaustion.kind));
      run_span.AddAttribute("budget_site", result.exhaustion.site);
    }
    run_span.AddAttribute("has_rewriting", result.has_rewriting);
    run_span.AddAttribute("rewritings",
                          static_cast<uint64_t>(result.rewritings.size()));
    run_span.AddAttribute("truncated", result.truncated);
    RecordRunMetrics(result);
  };

  // Step 1: minimize the query.
  Timer phase_timer;
  {
    TraceSpan span(run_span, "minimize");
    bool minimize_complete = true;
    result.minimized_query = Minimize(query, &minimize_complete);
    // A removal probe aborted by its node cap does not latch the governor
    // itself (node-cap aborts are per-search), so an incomplete — possibly
    // non-minimal — core would otherwise sail through with status kOk,
    // get fingerprinted, and poison the plan cache. Latch here; the flag is
    // deterministic under a pure work budget (node-cap aborts are
    // schedule-independent), and the checkpoint below then reports the run
    // as budget-exhausted.
    if (!minimize_complete && governor != nullptr) {
      governor->NoteExhausted(BudgetKind::kWork, "corecover.minimize");
    }
    span.AddAttribute(
        "subgoals", static_cast<uint64_t>(result.minimized_query.num_subgoals()));
  }
  result.stats.minimize_ms = phase_timer.ElapsedMillis();
  const ConjunctiveQuery& q = result.minimized_query;
  const size_t n = q.num_subgoals();
  if (!budget_ok("corecover.minimize")) {
    finalize();
    return result;
  }
  if (n > 64) {
    // Tuple-cores are uint64_t bitmasks over query subgoals (see the
    // contract in set_cover.h); report the unsupported input instead of
    // aborting the process. (An exhausted budget is handled above: an
    // aborted minimization can leave more than 64 subgoals on a query whose
    // true minimization fits, so that case must read as budget exhaustion,
    // not as an unsupported query.)
    result.status = CoreCoverStatus::kUnsupportedQueryTooLarge;
    result.error = "minimized query has " + std::to_string(n) +
                   " subgoals; the tuple-core bitmask supports at most 64";
    finalize();
    return result;
  }

  // Candidate view selection: drop views that provably produce zero view
  // tuples (kCoverAll summary test — see rewrite/view_index.h for the
  // soundness argument) before the per-view containment work of grouping
  // and tuple generation. Equivalence classes are kept or dropped
  // wholesale (class members share summaries), so grouping below elects
  // the same representatives among survivors and plans are byte-identical
  // with the filter on or off. No budget checkpoint is added here: the
  // summary scan is cheap and a new checkpoint would shift the exhaustion
  // sites that existing budget tests pin.
  phase_timer.Reset();
  ViewSet candidate_views;
  std::vector<size_t> candidate_to_catalog;
  const ViewSet* effective_views = &views;
  const std::vector<size_t>* to_catalog = nullptr;
  if (options.use_view_index) {
    TraceSpan span(run_span, "candidates");
    std::vector<size_t> cands;
    if (options.view_index != nullptr) {
      VBR_CHECK_MSG(options.view_index->num_views() == views.size(),
                    "view_index describes a different catalog");
      cands = options.view_index->Candidates(q, CandidateMode::kCoverAll);
    } else {
      cands = LinearCandidates(views, q, CandidateMode::kCoverAll);
    }
    candidate_views.reserve(cands.size());
    candidate_to_catalog.reserve(cands.size());
    for (size_t i : cands) {
      candidate_views.push_back(views[i]);
      candidate_to_catalog.push_back(i);
    }
    effective_views = &candidate_views;
    to_catalog = &candidate_to_catalog;
    span.AddAttribute("candidates", static_cast<uint64_t>(cands.size()));
    span.AddAttribute("indexed", options.view_index != nullptr);
  }
  result.stats.num_candidate_views = effective_views->size();
  run_span.AddAttribute(
      "candidate_views",
      static_cast<uint64_t>(result.stats.num_candidate_views));

  // Section 5.2: group equivalent views and keep one representative each.
  ViewSet working_views;
  std::vector<size_t> working_to_original;  // original catalog indices
  {
    TraceSpan span(run_span, "group_views");
    if (options.group_views) {
      const ViewClasses classes = GroupViewsByEquivalence(*effective_views);
      result.stats.num_view_classes = classes.num_classes();
      for (size_t rep : classes.representatives) {
        working_views.push_back((*effective_views)[rep]);
        working_to_original.push_back(to_catalog ? (*to_catalog)[rep] : rep);
      }
    } else {
      result.stats.num_view_classes = effective_views->size();
      working_views = *effective_views;
      for (size_t i = 0; i < effective_views->size(); ++i) {
        working_to_original.push_back(to_catalog ? (*to_catalog)[i] : i);
      }
    }
    span.AddAttribute("grouping", options.group_views);
    span.AddAttribute("classes",
                      static_cast<uint64_t>(result.stats.num_view_classes));
  }
  if (!budget_ok("corecover.group_views")) {
    finalize();
    return result;
  }

  // Step 2: view tuples on the canonical database.
  result.stats.view_tuple_tasks = working_views.size();
  std::vector<ViewTuple> tuples;
  {
    TraceSpan span(run_span, "view_tuples");
    tuples = ComputeViewTuples(q, working_views);
    span.AddAttribute("tuples", static_cast<uint64_t>(tuples.size()));
  }
  result.stats.view_tuple_ms = phase_timer.ElapsedMillis();
  result.stats.num_view_tuples = tuples.size();
  if (!budget_ok("corecover.view_tuples")) {
    finalize();
    return result;
  }

  // Step 3: the tuple-core of every view tuple.
  phase_timer.Reset();
  result.stats.tuple_core_tasks = tuples.size();
  std::vector<TupleCore> cores;
  cores.reserve(tuples.size());
  {
    TraceSpan span(run_span, "tuple_cores");
    for (const ViewTuple& tuple : tuples) {
      cores.push_back(ComputeTupleCore(q, tuple, working_views));
    }
    span.AddAttribute("cores", static_cast<uint64_t>(tuples.size()));
  }
  result.stats.tuple_core_ms = phase_timer.ElapsedMillis();
  if (!budget_ok("corecover.tuple_cores")) {
    finalize();
    return result;
  }

  // Group tuples by core; the cover search runs over one representative per
  // class (or over all tuples when grouping is disabled).
  const ViewTupleClasses tuple_classes = GroupViewTuplesByCore(tuples, cores);
  result.stats.num_tuple_classes = tuple_classes.num_classes();

  result.view_tuples.reserve(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    AnnotatedViewTuple annotated;
    annotated.tuple = tuples[i];
    annotated.tuple.view_index = working_to_original[tuples[i].view_index];
    annotated.core = cores[i];
    annotated.class_id = tuple_classes.class_of[i];
    annotated.is_class_representative =
        tuple_classes.representatives[tuple_classes.class_of[i]] == i;
    if (annotated.core.empty()) result.filter_candidates.push_back(i);
    result.view_tuples.push_back(std::move(annotated));
  }

  std::vector<size_t> candidate_tuples;  // indices into `tuples`
  if (options.group_view_tuples) {
    candidate_tuples = tuple_classes.representatives;
  } else {
    for (size_t i = 0; i < tuples.size(); ++i) candidate_tuples.push_back(i);
  }
  for (size_t i : candidate_tuples) {
    if (!cores[i].empty()) ++result.stats.num_nonempty_cores;
  }

  // Step 4: cover the query subgoals with tuple-cores.
  phase_timer.Reset();
  const uint64_t universe = (n == 64) ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  std::vector<uint64_t> sets;
  sets.reserve(candidate_tuples.size());
  for (size_t i : candidate_tuples) sets.push_back(cores[i].covered_mask);

  std::vector<std::vector<size_t>> covers;
  {
    TraceSpan span(run_span, "set_cover");
    if (mode == CoverMode::kMinimum) {
      MinimumCoversResult min_covers =
          FindAllMinimumCovers(universe, sets, options.max_rewritings,
                               &result.stats.cover_branch_tasks);
      result.has_rewriting = min_covers.feasible;
      result.stats.minimum_cover_size = min_covers.min_size;
      result.truncated = min_covers.truncated;
      covers = std::move(min_covers.covers);
      // An incomplete enumeration must never read as a complete one: a
      // branch stopped by its node cap does not latch the governor itself,
      // so latch here (deterministic under a pure work budget).
      if (min_covers.aborted && governor != nullptr) {
        governor->NoteExhausted(BudgetKind::kWork, "corecover.set_cover");
      }
    } else {
      bool truncated = false;
      bool aborted = false;
      covers = FindAllMinimalCovers(universe, sets, options.max_rewritings,
                                    &truncated,
                                    &result.stats.cover_branch_tasks, &aborted);
      result.has_rewriting = !covers.empty();
      result.truncated = truncated;
      if (aborted && governor != nullptr) {
        governor->NoteExhausted(BudgetKind::kWork, "corecover.set_cover");
      }
      if (result.has_rewriting) {
        size_t min_size = SIZE_MAX;
        for (const auto& c : covers) min_size = std::min(min_size, c.size());
        result.stats.minimum_cover_size = min_size;
      }
    }
    span.AddAttribute("covers", static_cast<uint64_t>(covers.size()));
    span.AddAttribute("truncated", result.truncated);
  }
  result.stats.cover_ms = phase_timer.ElapsedMillis();

  for (const std::vector<size_t>& cover : covers) {
    std::vector<Atom> body;
    body.reserve(cover.size());
    for (size_t k : cover) body.push_back(tuples[candidate_tuples[k]].atom);
    result.rewritings.emplace_back(q.head(), std::move(body));
  }

  if (options.verify_rewritings) {
    // One containment check per rewriting.
    TraceSpan span(run_span, "verify");
    result.stats.verify_tasks = result.rewritings.size();
    std::erase_if(result.rewritings, [&](const ConjunctiveQuery& rewriting) {
      if (IsEquivalentRewriting(rewriting, query, views)) return false;
      // Under an exhausted budget the equivalence check itself may have been
      // the thing that aborted, so a failure is indistinguishable from an
      // unfinished search: drop the rewriting instead of crashing. With
      // budget to spare, a failure is a genuine algorithmic bug.
      VBR_CHECK_MSG(governor != nullptr && governor->exhausted(),
                    "CoreCover produced a non-equivalent rewriting");
      return true;
    });
    span.AddAttribute("verified",
                      static_cast<uint64_t>(result.rewritings.size()));
  }

  finalize();
  return result;
}

}  // namespace

CoreCoverResult CoreCover(const ConjunctiveQuery& query, const ViewSet& views,
                          const CoreCoverOptions& options) {
  return RunCoreCover(query, views, options, CoverMode::kMinimum);
}

CoreCoverResult CoreCoverStar(const ConjunctiveQuery& query,
                              const ViewSet& views,
                              const CoreCoverOptions& options) {
  return RunCoreCover(query, views, options, CoverMode::kMinimal);
}

}  // namespace vbr
