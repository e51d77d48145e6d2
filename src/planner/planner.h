#ifndef VBR_PLANNER_PLANNER_H_
#define VBR_PLANNER_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/trace.h"
#include "common/vbin.h"
#include "cost/cost_model.h"
#include "cost/costing_session.h"
#include "cost/physical_plan.h"
#include "cq/fingerprint.h"
#include "cq/query.h"
#include "engine/database.h"
#include "planner/request_options.h"
#include "rewrite/certificate.h"
#include "rewrite/core_cover.h"

namespace vbr {

struct CachedPlan;
class PlanCache;
struct PlanCacheCounters;
struct SnapshotLoadResult;  // planner/snapshot.h

// Outcome classification of a planning request. Distinguishes "there
// provably is no equivalent rewriting over these views" from "the query is
// outside the supported fragment", which the old optional<PlanChoice>
// return collapsed into one nullopt.
enum class PlanStatus {
  // A plan was chosen; PlanResult::choice is populated.
  kOk = 0,
  // No certified equivalent rewriting over the current view set: the
  // rewriting search found none, or every candidate it emitted failed
  // certification (PlanResult::error then says how many).
  kNoRewriting,
  // The (minimized) query exceeds the supported fragment (e.g. more than
  // 64 subgoals); PlanResult::error carries the detail.
  kUnsupportedQueryTooLarge,
  // The request's resource budget (the governor installed around the call)
  // ran out before any certified plan could be produced — including the
  // degradation ladder (grace certification of a best-so-far rewriting,
  // then the budgeted MiniCon fallback). PlanResult::exhaustion says which
  // budget died and at which check site; `error` carries a human-readable
  // account. Note that a budget can also run out and still yield a plan:
  // the result is then kOk with `degraded` set.
  kBudgetExhausted,
};

const char* PlanStatusName(PlanStatus status);

// One-call facade over the whole pipeline: given the view definitions and
// their materialized instances, Plan() runs CoreCover / CoreCover*, lets
// the filter advisor add selective empty-core tuples (M2/M3), optimizes the
// join order (and, under M3, the attribute drops) against the instances,
// and returns the chosen physical plan together with a checkable
// equivalence certificate. Execute() runs it.
//
//   ViewPlanner planner(views, MaterializeViews(views, base));
//   auto result = planner.Plan(query, CostModel::kM2);
//   if (result.ok()) Relation answer = planner.Execute(*result.choice);
//
// Caching: CoreCover's logical output depends only on the query and the
// view definitions, so the planner keeps a fingerprint-keyed plan cache
// (see planner/plan_cache.h). Queries identical up to variable renaming and
// subgoal reordering share one entry; on a hit the cached rewritings are
// re-costed against the CURRENT view instances, so M2/M3 plans keep
// tracking instance sizes. ReplaceViews() swaps the view set and
// invalidates the cache by bumping its epoch.
//
// Thread safety: every member function may be called concurrently with
// every other, INCLUDING ReplaceViews. The view definitions, their
// instances, and the cache epoch they pair with live in one immutable
// reference-counted ViewSnapshot; each request pins the snapshot current at
// its entry and uses it throughout, RCU-style, so a concurrent swap can
// never show a request a torn (new views, old instances) state or let it
// poison the cache across an epoch. The only exception is the pair of
// borrowing accessors views() / view_instances(): the references they
// return are stable only until the next ReplaceViews — callers that race a
// swap should hold a snapshot() instead.
class ViewPlanner {
 public:
  // One immutable (views, instances, cache epoch) generation. Requests pin
  // a snapshot for their whole lifetime; ReplaceViews publishes a new one,
  // AddViews/RemoveViews publish a patched one (same epoch, next delta
  // epoch).
  struct ViewSnapshot {
    ViewSet views;
    Database instances;
    uint64_t epoch = 0;
    // Plan-cache delta epoch this catalog generation pairs with (see
    // plan_cache.h): cache traffic for requests pinned here is reconciled
    // per-query against catalogs one or more AddViews/RemoveViews away.
    uint64_t delta_epoch = 0;
    // Candidate index over `views` (null when use_view_index is off);
    // shared by every request pinned to this snapshot.
    std::shared_ptr<const ViewIndex> index;
    // Exact sizes measured against `instances`, shared by every request
    // pinned to this snapshot and dropped with it. Every snapshot gets a
    // fresh one: a delta or swap changes the instances it describes.
    std::unique_ptr<CostingSession> costing =
        std::make_unique<CostingSession>();
  };

  struct PlanChoice {
    // The logical plan (rewriting over view predicates, filters included).
    ConjunctiveQuery logical;
    // The physical plan executed against the view instances.
    PhysicalPlan physical;
    // Cost of `physical` under the requested model (M1: subgoal count).
    size_t cost = 0;
    CostModel model = CostModel::kM1;
    // Witness that `logical` (hence `physical`) answers the query exactly.
    // Stated over the MINIMIZED core of the query (which minimization
    // guarantees equivalent to the query itself), so cached rewritings
    // certify identically for every renamed variant of a query.
    EquivalenceCertificate certificate;

    std::string ToString() const;
  };

  // Status-bearing planning result. `choice` is populated exactly when
  // status == PlanStatus::kOk.
  struct PlanResult {
    PlanStatus status = PlanStatus::kNoRewriting;
    std::optional<PlanChoice> choice;
    // Stats of the CoreCover run that produced the rewritings. On a cache
    // hit these are the ORIGINAL run's stats (its timings describe the
    // planning work this request skipped).
    CoreCoverStats stats;
    // True if the logical plans came from the cache instead of a fresh
    // CoreCover run.
    bool cache_hit = false;
    // Human-readable detail when status == kUnsupportedQueryTooLarge or
    // kBudgetExhausted, or kNoRewriting after failed certifications.
    std::string error;
    // Which budget died and where (BudgetKind::kNone when none did).
    // Populated both for kBudgetExhausted and for degraded kOk results.
    BudgetExhaustion exhaustion;
    // True when the budget ran out but the degradation ladder still produced
    // a certified plan (best-so-far grace certification or the MiniCon
    // fallback) — or when costing was starved, so `choice` is certified-
    // correct but may not be the cheapest candidate.
    bool degraded = false;

    bool ok() const { return status == PlanStatus::kOk; }

    // One JSON object in the same dialect as PlanExplanation::ToJson —
    // identical keys for status / error / budget / plan / stats — so the
    // CLI, the HTTP endpoint, and tests all read one schema:
    //   {"status":"ok","error":"","cache_hit":true,
    //    "budget":{"exhausted":false,"kind":"none","site":"","degraded":false},
    //    "plan":{"logical":...,"physical":...,"cost":7,"model":"M2"},
    //    "stats":{...}}
    std::string ToJson() const;
  };

  struct Options {
    Options() { core_cover.max_rewritings = 64; }

    // Knobs forwarded to CoreCover / CoreCoverStar: view/tuple grouping,
    // verification, and the rewriting cap
    // (max_rewritings defaults to 64 here — the facade bounds the costing
    // loop tighter than the raw pipeline's 1024).
    CoreCoverOptions core_cover;
    // Serve repeated (isomorphic) queries from the plan cache.
    bool enable_cache = true;
    // Work-unit budget for the degradation ladder: grace certification of a
    // best-so-far rewriting and the MiniCon fallback each run under a fresh
    // governor with this work limit, shielded from the exhausted request
    // governor (otherwise a dead budget would starve its own recovery).
    // When the installed request governor has a deadline, the grace governor
    // also gets a quarter of it (at least 5 ms), so the ladder cannot turn a
    // tight deadline into a long fallback search. 0 = unlimited grace work.
    uint64_t fallback_work_budget = 250'000;
    // When CoreCover's budget dies before any rewriting is found, retry with
    // a work-budgeted MiniCon run (baseline/minicon.h) before giving up.
    bool enable_minicon_fallback = true;
  };

  // `view_instances` must hold one relation per view head predicate (as
  // produced by MaterializeViews); missing relations are treated as empty.
  ViewPlanner(ViewSet views, Database view_instances);
  ViewPlanner(ViewSet views, Database view_instances, Options options);
  ~ViewPlanner();

  ViewPlanner(const ViewPlanner&) = delete;
  ViewPlanner& operator=(const ViewPlanner&) = delete;

  // A self-describing account of one planning decision, for humans (ToText)
  // and tools (ToJson): the chosen rewriting, every candidate considered
  // with its cost and why it lost, a per-cost-model breakdown of the winner
  // with the measured intermediate-result sizes, and the cache disposition.
  // Available for failed plans too (status / error are always reported).
  struct PlanExplanation {
    // One costed candidate rewriting (after any advisor filters).
    struct Candidate {
      ConjunctiveQuery logical;
      size_t cost = 0;
      // The filter advisor appended selective subgoals to this candidate.
      bool filtered = false;
      bool chosen = false;
      // "chosen", or why not: "cost 18 >= winner 7", "failed certification".
      std::string reason;
    };
    // The chosen logical plan measured under one cost model: its join
    // order, per-step view-relation sizes, and per-step intermediate sizes
    // (IR_i under M2, GSR_i under M3; empty for M1, which counts subgoals).
    struct ModelBreakdown {
      CostModel model = CostModel::kM1;
      size_t cost = 0;
      std::vector<size_t> order;
      std::vector<size_t> relation_sizes;
      std::vector<size_t> state_sizes;
    };

    PlanStatus status = PlanStatus::kNoRewriting;
    std::string error;
    CostModel model = CostModel::kM1;
    // "hit", "miss", "bypass" (builtins skip the cache), or "disabled".
    std::string cache_disposition;
    ConjunctiveQuery query;
    // The minimized core the rewriting search ran on.
    ConjunctiveQuery minimized;
    std::optional<PlanChoice> choice;
    std::vector<Candidate> candidates;
    // Breakdown under M1, M2, and M3 (in that order) when a plan exists.
    std::vector<ModelBreakdown> breakdown;
    CoreCoverStats stats;
    bool cache_hit = false;
    // Budget outcome, mirrored from PlanResult: which budget died and where
    // (kNone when none did), and whether the plan came from the degradation
    // ladder. ToText/ToJson surface these alongside the rewriting-cap flag
    // (stats.hit_rewriting_cap) so silent truncation is visible.
    BudgetExhaustion exhaustion;
    bool degraded = false;

    bool ok() const { return status == PlanStatus::kOk; }
    std::string ToText() const;
    std::string ToJson() const;
  };

  // Chooses a plan for `query` under `model`. With a non-null `trace`, the
  // call emits a span tree into the sink: a root "plan" span (attributes:
  // model, cache disposition, status) with children for canonicalization,
  // the cache lookup, every CoreCover stage, the cost optimizers, and
  // certification. A null sink costs one branch per span site. These
  // overloads install no budget: the whole call runs under whatever
  // ResourceGovernor the caller installed (GovernorScope), or unbounded.
  PlanResult Plan(const ConjunctiveQuery& query, CostModel model) const;
  PlanResult Plan(const ConjunctiveQuery& query, CostModel model,
                  TraceSink* trace) const;
  // As above, but the "plan" span nests under `trace`'s parent span — used
  // by callers that wrap planning in their own span tree (the
  // PlanningService's per-request spans).
  PlanResult Plan(const ConjunctiveQuery& query, CostModel model,
                  const TraceContext& trace) const;

  // The transport-neutral entry point: plans `query` under
  // `request.model`, governed by the request's deadline/work/memory limits
  // (a fresh ResourceGovernor is installed around the call when any limit
  // is set). This is the same contract the PlanningService applies to its
  // queue, so an in-process call and a wire request with equal options
  // plan identically.
  PlanResult Plan(const ConjunctiveQuery& query,
                  const PlanRequestOptions& request,
                  TraceSink* trace = nullptr) const;

  // Cache-only planning: serves `query` from the plan cache (re-costed and
  // re-certified against current instances, exactly like a Plan() hit) and
  // returns nullopt on a miss WITHOUT running the rewriting search. The
  // PlanningService's brown-out ladder uses this to keep serving warm
  // traffic when the breaker has shed fresh planning work. Queries the
  // cache cannot hold (builtins, cache disabled) always miss.
  std::optional<PlanResult> TryPlanFromCache(const ConjunctiveQuery& query,
                                             CostModel model) const;

  // Plans `query` under `request.model` and explains the outcome. Runs the
  // normal planning path (cache included) under the request's governor, as
  // Plan(query, request) does, plus extra measurement work: every candidate
  // is recorded while costing, and the winner is re-measured under all
  // three cost models — outside the governor, so a budgeted explanation
  // still carries its breakdown. Explain is strictly more expensive than
  // Plan — use it for debugging and inspection, not on the hot path.
  PlanExplanation Explain(const ConjunctiveQuery& query,
                          const PlanRequestOptions& request,
                          TraceSink* trace = nullptr) const;

  // Replaces the view definitions and instances and invalidates the plan
  // cache (epoch bump), preserving cache counters and options. Prefer this
  // over constructing a new planner when the view set evolves. Safe to call
  // while Plan/Execute/Answer calls are in flight: in-flight requests
  // finish against the snapshot they pinned at entry, and their cache
  // traffic stays keyed to that snapshot's epoch.
  void ReplaceViews(ViewSet views, Database view_instances);

  // Delta mutations: publish a patched snapshot (and candidate index)
  // WITHOUT bumping the cache epoch. Instead, the plan cache records a
  // fence carrying the changed views' summaries, and only cached plans
  // whose candidate sets could include a changed view are invalidated —
  // every other entry keeps serving hits across the delta (plan_cache.h
  // "Delta epoch"). Same concurrency contract as ReplaceViews.
  //
  // AddViews appends `added` to the catalog (their ids continue the
  // current numbering); `added_instances` holds their materialized
  // relations, merged into the snapshot's instance copy.
  void AddViews(ViewSet added, Database added_instances);
  // RemoveViews drops every view whose HEAD PREDICATE name is listed
  // (with its instance relation) and returns how many views were dropped;
  // unknown names are ignored.
  size_t RemoveViews(const std::vector<std::string>& names);

  // Executes a chosen plan against the view instances.
  Relation Execute(const PlanChoice& choice) const;

  // Convenience: Plan under M2 and Execute, or nullopt if no plan exists.
  // Plans and executes against ONE snapshot, so the answer is consistent
  // even when ReplaceViews lands between the two steps.
  std::optional<Relation> Answer(const ConjunctiveQuery& query) const;

  // The current (views, instances, epoch) generation. The returned snapshot
  // is immutable and stays valid for as long as the caller holds it, even
  // across ReplaceViews.
  std::shared_ptr<const ViewSnapshot> snapshot() const;

  // Borrowing accessors into the CURRENT snapshot. The references are
  // stable only until the next ReplaceViews; callers that may race a swap
  // should pin snapshot() instead.
  const ViewSet& views() const { return CurrentSnapshot()->views; }
  const Database& view_instances() const {
    return CurrentSnapshot()->instances;
  }

  // Persistence (planner/snapshot.h). SaveSnapshot writes every live
  // plan-cache entry — fingerprints, rewritings, certificates — plus a
  // fingerprint of the current view definitions as one VBIN file
  // (atomically: temp file + rename). LoadSnapshot warms the cache from
  // such a file: if the stored view fingerprint matches the current views,
  // the entries are inserted under the current epoch and the very next
  // Plan() of a snapshotted query is a cache hit with a byte-identical
  // plan; if it does not match, the planner stays cold (compatible ==
  // false, NOT an error). Corrupt/truncated/newer-versioned files are
  // rejected with a clean status and leave the cache untouched. Both are
  // safe to call while planning traffic is in flight.
  vbin::Status SaveSnapshot(const std::string& path) const;
  SnapshotLoadResult LoadSnapshot(const std::string& path);

  // Plan-cache observability (all zero when the cache is disabled).
  PlanCacheCounters cache_counters() const;
  size_t cache_size() const;
  uint64_t cache_epoch() const;
  // Current delta epoch (0 until the first AddViews/RemoveViews).
  uint64_t delta_epoch() const;

 private:
  // The snapshot every helper below plans against: pinned ONCE at the
  // public entry point and threaded through, so one request never mixes
  // view-set generations.
  std::shared_ptr<const ViewSnapshot> CurrentSnapshot() const;

  // Shared Plan/Explain entry: plans with optional tracing and, when
  // `explain` is non-null, records candidates / cache disposition /
  // minimized core into it. Every result leaves stamped with the installed
  // governor's budget outcome.
  PlanResult PlanInternal(const ViewSnapshot& vs,
                          const ConjunctiveQuery& query, CostModel model,
                          const TraceContext& trace,
                          PlanExplanation* explain) const;
  struct CacheLookup {
    CanonicalQuery canonical;
    std::shared_ptr<const CachedPlan> entry;  // null on a miss
    // On a hit: renames the entry's canonical variables into the query's.
    Substitution transport;
  };
  // Canonicalizes `query` and probes the cache under `vs`'s epochs,
  // emitting the "canonicalize" and "cache_lookup" spans.
  CacheLookup LookUp(const ViewSnapshot& vs, const ConjunctiveQuery& query,
                     CostModel model, const TraceContext& trace) const;
  // Miss (or bypass) path: runs CoreCover for `query`, then FinishPlan on
  // its rewritings, or the MiniCon fallback when the budget died before
  // any was found. When `canonical` is non-null the logical outcome is
  // also inserted into the cache.
  PlanResult PlanViaCoreCover(const ViewSnapshot& vs,
                              const ConjunctiveQuery& query, CostModel model,
                              const CanonicalQuery* canonical,
                              const TraceContext& trace,
                              PlanExplanation* explain) const;
  // Hit path: renames a cached entry into `query`'s variables through
  // `transport` and hands it to FinishPlan.
  PlanResult PlanFromEntry(const ViewSnapshot& vs,
                           const ConjunctiveQuery& query, CostModel model,
                           const CachedPlan& entry,
                           const Substitution& transport,
                           const TraceContext& trace,
                           PlanExplanation* explain) const;
  // The one finish of fresh and cached plans, all in the query's own
  // variables: CostAndPick over `rewritings` and `filter_atoms`, then
  // certify against `minimized` cheapest first (first emitted on ties). A
  // candidate refuted with budget to spare is dropped (counted in
  // planner.uncertified_dropped) and the next tried; none left is
  // kNoRewriting. Under an exhausted budget the candidate in hand is
  // grace-certified. A certificate `entry` holds for a candidate (renamed by
  // `from_entry`) is reused when it verifies; a new one is stored into
  // `entry` through `to_entry`. `entry` may be null.
  void FinishPlan(const ViewSnapshot& vs, const ConjunctiveQuery& query,
                  CostModel model,
                  const std::vector<ConjunctiveQuery>& rewritings,
                  const std::vector<Atom>& filter_atoms,
                  const ConjunctiveQuery& minimized, const CachedPlan* entry,
                  const Substitution& to_entry, const Substitution& from_entry,
                  const TraceContext& trace, PlanExplanation* explain,
                  PlanResult* out) const;
  // The one costing function, shared by planning and Explain: costs
  // `logical` under `model` against the snapshot's instances, as a
  // PlanChoice without a certificate. M1 counts subgoals in written order;
  // M2 runs the exact subset DP; M3 runs the exhaustive order/drop search
  // (renaming-safety checked against `query`) up to kMaxM3Subgoals and the
  // M2 order plus SR drops beyond. Returns nullopt when an M2/M3 rewriting
  // is wider than kMaxM2Subgoals.
  std::optional<PlanChoice> CostRewriting(CostModel model,
                                          const ConjunctiveQuery& logical,
                                          const ConjunctiveQuery& query,
                                          const ViewSnapshot& vs,
                                          const TraceContext& trace) const;
  // One costed candidate: its PlanChoice (logical plan after any advisor
  // filters, physical plan, cost; no certificate yet), whether the advisor
  // added filters, and the index of its rewriting.
  struct CostedCandidate {
    PlanChoice choice;
    bool filtered = false;
    size_t rewriting = 0;
  };
  // Shared costing loop: runs filter advice (M2/M3) and CostRewriting on
  // each rewriting and returns the costed ones in emission order (none if
  // every one is too wide). Callers pick the cheapest, first on ties. With
  // an active `trace`, emits a "cost_and_pick" span (with optimizer child
  // spans).
  std::vector<CostedCandidate> CostAndPick(
      const ViewSnapshot& vs, const ConjunctiveQuery& query, CostModel model,
      const std::vector<ConjunctiveQuery>& rewritings,
      const std::vector<Atom>& filter_atoms, const TraceContext& trace) const;
  // Lists `costed` into a non-null `explain`: costed[chosen] is chosen (none
  // when chosen == costed.size()), those flagged in `dropped` (may be empty)
  // "failed certification", the rest lost to the chosen one's cost.
  static void ListCandidates(const std::vector<CostedCandidate>& costed,
                             size_t chosen, const std::vector<bool>& dropped,
                             PlanExplanation* explain);
  // Last rung of the degradation ladder: the request budget died before
  // CoreCover found any rewriting. Retries with a MiniCon run under a grace
  // governor of fallback_work_budget work units (when
  // enable_minicon_fallback) and certifies its winner under the same
  // governor; otherwise (or when that budget dies too) returns
  // kBudgetExhausted with CoreCover's exhaustion.
  PlanResult MiniConFallback(const ViewSnapshot& vs,
                             const ConjunctiveQuery& query, CostModel model,
                             const CoreCoverResult& cc_result,
                             const TraceContext& trace,
                             PlanExplanation* explain) const;

  Options options_;
  std::unique_ptr<PlanCache> cache_;
  // Current snapshot, swapped wholesale by ReplaceViews. Guarded by
  // snapshot_mu_ (a pointer copy, not a data copy — reads are O(1)).
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ViewSnapshot> snapshot_;
  // Serializes ReplaceViews calls so (epoch bump, snapshot publish) pairs
  // cannot interleave.
  std::mutex replace_mu_;
};

}  // namespace vbr

#endif  // VBR_PLANNER_PLANNER_H_
