#include "planner/planner.h"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "baseline/minicon.h"
#include "common/budget.h"
#include "common/check.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "cost/filter_advisor.h"
#include "cq/containment.h"
#include "cost/m2_optimizer.h"
#include "cost/m3_optimizer.h"
#include "cost/supplementary.h"
#include "planner/plan_cache.h"
#include "rewrite/core_cover.h"

namespace vbr {

namespace {

// Inverse of a variable-to-variable renaming.
Substitution InvertRenaming(const Substitution& renaming) {
  Substitution inverse;
  for (const auto& [sym, target] : renaming.bindings()) {
    VBR_CHECK_MSG(target.is_variable(), "renaming maps a variable to a constant");
    const bool fresh = inverse.Bind(target, Term::Variable(sym));
    VBR_CHECK_MSG(fresh, "renaming is not injective");
  }
  return inverse;
}

// Renames a containment mapping: both its domain variables and its targets
// are pushed through `renaming` (variables the renaming does not cover —
// the expansion's fresh existentials — pass through unchanged).
Substitution RenameMapping(const Substitution& mapping,
                           const Substitution& renaming) {
  Substitution out;
  for (const auto& [sym, target] : mapping.bindings()) {
    const Term domain = renaming.Apply(Term::Variable(sym));
    VBR_CHECK_MSG(domain.is_variable(), "mapping domain renamed to a constant");
    out.Bind(domain, renaming.Apply(target));
  }
  return out;
}

// Transports a certificate along a variable renaming (canonical space <->
// a concrete query's variable space). The expansion's fresh existential
// variables are outside the renaming and keep their names; the caller
// re-verifies the transported certificate before trusting it.
EquivalenceCertificate TransportCertificate(const EquivalenceCertificate& cert,
                                            const Substitution& renaming) {
  EquivalenceCertificate out;
  out.query = renaming.Apply(cert.query);
  out.rewriting = renaming.Apply(cert.rewriting);
  out.expansion.query = renaming.Apply(cert.expansion.query);
  out.expansion.origin = cert.expansion.origin;
  out.query_to_expansion = RenameMapping(cert.query_to_expansion, renaming);
  out.expansion_to_query = RenameMapping(cert.expansion_to_query, renaming);
  return out;
}

// Total plan-cache entries across all shards.
constexpr size_t kPlanCacheCapacity = 1024;

// Stamps one planning request's result with the budget outcome of the
// governor installed around it and records that outcome into the global
// metrics registry. A plan that survived an exhausted budget is degraded:
// costing or certification was starved, so it is certified-correct but may
// not be the cheapest candidate.
void StampExhaustion(ViewPlanner::PlanResult* result) {
  const ResourceGovernor* const governor = ResourceGovernor::Current();
  if (governor != nullptr && governor->exhausted()) {
    result->exhaustion = governor->exhaustion();
    result->degraded = result->status == PlanStatus::kOk;
  }
  if (result->exhaustion.kind == BudgetKind::kNone) return;
  static Counter* const exhausted =
      MetricsRegistry::Global().GetCounter("planner.budget_exhausted");
  exhausted->Increment();
  if (result->exhaustion.kind == BudgetKind::kDeadline) {
    static Counter* const deadline =
        MetricsRegistry::Global().GetCounter("planner.deadline_exceeded");
    deadline->Increment();
  }
}

std::string ExhaustionMessage(const BudgetExhaustion& exhaustion,
                              std::string_view while_doing) {
  std::string s = BudgetKindName(exhaustion.kind);
  s += " budget exhausted";
  if (!exhaustion.site.empty()) s += " at " + exhaustion.site;
  s += " ";
  s += while_doing;
  return s;
}

// Error for a request none of whose candidate rewritings can be costed.
std::string TooWideToCostError(CostModel model) {
  return std::string("no candidate rewriting can be costed under ") +
         CostModelName(model) + ": each has more than " +
         std::to_string(kMaxM2Subgoals) +
         " subgoals, the limit of the M2 join-order search";
}

}  // namespace

const char* PlanStatusName(PlanStatus status) {
  switch (status) {
    case PlanStatus::kOk:
      return "ok";
    case PlanStatus::kNoRewriting:
      return "no equivalent rewriting";
    case PlanStatus::kUnsupportedQueryTooLarge:
      return "unsupported query (too large)";
    case PlanStatus::kBudgetExhausted:
      return "budget exhausted";
  }
  return "?";
}

std::string ViewPlanner::PlanChoice::ToString() const {
  std::string s = "logical : " + logical.ToString() + "\n";
  s += "physical: " + physical.ToString() + "\n";
  s += "cost    : " + std::to_string(cost) + " (" + CostModelName(model) + ")";
  return s;
}

namespace {

// "[3 1 2]" with separator " ", "[3,1,2]" with ",".
std::string SizesToString(const std::vector<size_t>& sizes,
                          std::string_view separator) {
  std::string s = "[";
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0) s += separator;
    s += std::to_string(sizes[i]);
  }
  s += "]";
  return s;
}

std::string Quoted(std::string_view s) {
  return "\"" + JsonEscape(s) + "\"";
}

std::string StatsToJson(const CoreCoverStats& stats) {
  std::string s = "{";
  s += "\"num_views\":" + std::to_string(stats.num_views);
  s += ",\"num_candidate_views\":" + std::to_string(stats.num_candidate_views);
  s += ",\"num_view_classes\":" + std::to_string(stats.num_view_classes);
  s += ",\"num_view_tuples\":" + std::to_string(stats.num_view_tuples);
  s += ",\"num_tuple_classes\":" + std::to_string(stats.num_tuple_classes);
  s += ",\"num_nonempty_cores\":" + std::to_string(stats.num_nonempty_cores);
  s += ",\"minimum_cover_size\":" + std::to_string(stats.minimum_cover_size);
  s += ",\"minimize_ms\":" + std::to_string(stats.minimize_ms);
  s += ",\"view_tuple_ms\":" + std::to_string(stats.view_tuple_ms);
  s += ",\"tuple_core_ms\":" + std::to_string(stats.tuple_core_ms);
  s += ",\"cover_ms\":" + std::to_string(stats.cover_ms);
  s += ",\"total_ms\":" + std::to_string(stats.total_ms);
  s += ",\"work_used\":" + std::to_string(stats.work_used);
  s += ",\"hit_rewriting_cap\":" +
       std::string(stats.hit_rewriting_cap ? "true" : "false");
  s += "}";
  return s;
}

// The "budget" object PlanResult and PlanExplanation both carry.
std::string BudgetToJson(const BudgetExhaustion& exhaustion, bool degraded) {
  std::string s = "{\"exhausted\":" +
                  std::string(exhaustion.kind != BudgetKind::kNone ? "true"
                                                                   : "false");
  s += ",\"kind\":" + Quoted(BudgetKindName(exhaustion.kind));
  s += ",\"site\":" + Quoted(exhaustion.site);
  s += ",\"degraded\":" + std::string(degraded ? "true" : "false") + "}";
  return s;
}

// The "plan" object PlanResult and PlanExplanation both carry.
std::string PlanToJson(const std::optional<ViewPlanner::PlanChoice>& choice) {
  if (!choice.has_value()) return "null";
  std::string s = "{";
  s += "\"logical\":" + Quoted(choice->logical.ToString());
  s += ",\"physical\":" + Quoted(choice->physical.ToString());
  s += ",\"cost\":" + std::to_string(choice->cost);
  s += ",\"model\":" + Quoted(CostModelName(choice->model));
  s += "}";
  return s;
}

}  // namespace

std::string ViewPlanner::PlanExplanation::ToText() const {
  std::string s;
  s += "query    : " + query.ToString() + "\n";
  s += "status   : " + std::string(PlanStatusName(status)) + "\n";
  if (!error.empty()) s += "error    : " + error + "\n";
  s += "model    : " + std::string(CostModelName(model)) + "\n";
  s += "cache    : " + cache_disposition +
       (cache_hit ? " (served from cache)" : "") + "\n";
  if (exhaustion.kind != BudgetKind::kNone) {
    s += "budget   : " + std::string(BudgetKindName(exhaustion.kind)) +
         " budget exhausted at " + exhaustion.site +
         (degraded ? " (degraded plan)" : "") + "\n";
  }
  if (stats.hit_rewriting_cap) {
    s += "truncated: candidate enumeration hit max_rewritings; the plan was "
         "chosen from an incomplete set\n";
  }
  // A failed plan still lists the candidates it costed (e.g. those that
  // failed certification), as the JSON form does.
  if (!ok() && candidates.empty()) return s;
  s += "minimized: " + minimized.ToString() + "\n";
  s += "candidates (" + std::to_string(candidates.size()) + "):\n";
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    s += "  [" + std::to_string(i) + "]" + (c.chosen ? " *" : "  ");
    s += " cost " + std::to_string(c.cost);
    if (c.filtered) s += " (filtered)";
    s += " : " + c.logical.ToString() + "  -- " + c.reason + "\n";
  }
  if (choice.has_value()) {
    s += "plan:\n";
    s += "  logical : " + choice->logical.ToString() + "\n";
    s += "  physical: " + choice->physical.ToString() + "\n";
    s += "  cost    : " + std::to_string(choice->cost) + " (" +
         CostModelName(choice->model) + ")\n";
  }
  if (!breakdown.empty()) {
    s += "breakdown:\n";
    for (const ModelBreakdown& b : breakdown) {
      s += "  " + std::string(CostModelName(b.model)) + ": cost " +
           std::to_string(b.cost) + ", order " + SizesToString(b.order, " ");
      if (!b.relation_sizes.empty()) {
        s += ", relation sizes " + SizesToString(b.relation_sizes, " ");
      }
      if (!b.state_sizes.empty()) {
        s += ", intermediate sizes " + SizesToString(b.state_sizes, " ");
      }
      s += "\n";
    }
  }
  return s;
}

std::string ViewPlanner::PlanExplanation::ToJson() const {
  std::string s = "{";
  s += "\"status\":" + Quoted(PlanStatusName(status));
  s += ",\"error\":" + Quoted(error);
  s += ",\"model\":" + Quoted(CostModelName(model));
  s += ",\"cache\":" + Quoted(cache_disposition);
  s += ",\"cache_hit\":" + std::string(cache_hit ? "true" : "false");
  s += ",\"budget\":" + BudgetToJson(exhaustion, degraded);
  s += ",\"query\":" + Quoted(query.ToString());
  s += ",\"minimized\":" + Quoted(minimized.ToString());
  s += ",\"candidates\":[";
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    if (i > 0) s += ",";
    s += "{\"logical\":" + Quoted(c.logical.ToString());
    s += ",\"cost\":" + std::to_string(c.cost);
    s += ",\"filtered\":" + std::string(c.filtered ? "true" : "false");
    s += ",\"chosen\":" + std::string(c.chosen ? "true" : "false");
    s += ",\"reason\":" + Quoted(c.reason) + "}";
  }
  s += "]";
  s += ",\"plan\":" + PlanToJson(choice);
  s += ",\"breakdown\":[";
  for (size_t i = 0; i < breakdown.size(); ++i) {
    const ModelBreakdown& b = breakdown[i];
    if (i > 0) s += ",";
    s += "{\"model\":" + Quoted(CostModelName(b.model));
    s += ",\"cost\":" + std::to_string(b.cost);
    s += ",\"order\":" + SizesToString(b.order, ",");
    s += ",\"relation_sizes\":" + SizesToString(b.relation_sizes, ",");
    s += ",\"state_sizes\":" + SizesToString(b.state_sizes, ",") + "}";
  }
  s += "]";
  s += ",\"stats\":" + StatsToJson(stats);
  s += "}";
  return s;
}

std::string ViewPlanner::PlanResult::ToJson() const {
  // Same dialect as PlanExplanation::ToJson: identical keys and value
  // shapes for the members both carry, so one reader handles both.
  std::string s = "{";
  s += "\"status\":" + Quoted(PlanStatusName(status));
  s += ",\"error\":" + Quoted(error);
  s += ",\"cache_hit\":" + std::string(cache_hit ? "true" : "false");
  s += ",\"budget\":" + BudgetToJson(exhaustion, degraded);
  s += ",\"plan\":" + PlanToJson(choice);
  s += ",\"stats\":" + StatsToJson(stats);
  s += "}";
  return s;
}

ViewPlanner::ViewPlanner(ViewSet views, Database view_instances)
    : ViewPlanner(std::move(views), std::move(view_instances), Options()) {}

ViewPlanner::ViewPlanner(ViewSet views, Database view_instances,
                         Options options)
    : options_(options),
      cache_(std::make_unique<PlanCache>(kPlanCacheCapacity)) {
  for (const View& v : views) {
    VBR_CHECK_MSG(v.IsSafe(), "unsafe view definition");
  }
  auto snapshot = std::make_shared<ViewSnapshot>();
  snapshot->views = std::move(views);
  snapshot->instances = std::move(view_instances);
  snapshot->epoch = cache_->epoch();
  snapshot->delta_epoch = cache_->delta_epoch();
  if (options_.core_cover.use_view_index) {
    snapshot->index = std::make_shared<ViewIndex>(snapshot->views);
  }
  snapshot_ = std::move(snapshot);
}

ViewPlanner::~ViewPlanner() = default;

std::shared_ptr<const ViewPlanner::ViewSnapshot> ViewPlanner::CurrentSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::shared_ptr<const ViewPlanner::ViewSnapshot> ViewPlanner::snapshot()
    const {
  return CurrentSnapshot();
}

std::optional<ViewPlanner::PlanChoice> ViewPlanner::CostRewriting(
    CostModel model, const ConjunctiveQuery& logical,
    const ConjunctiveQuery& query, const ViewSnapshot& vs,
    const TraceContext& trace) const {
  PlanChoice out;
  out.logical = logical;
  out.model = model;
  if (model == CostModel::kM1) {
    out.cost = CostM1(logical);
    out.physical.rewriting = logical;
    for (size_t i = 0; i < logical.num_subgoals(); ++i) {
      out.physical.order.push_back(i);
    }
    return out;
  }
  if (model == CostModel::kM3 &&
      logical.num_subgoals() <= kMaxM3Subgoals) {
    auto m3 = OptimizeM3(logical, query, vs.views, vs.instances, trace);
    out.physical = std::move(m3.plan);
    out.cost = m3.cost;
    return out;
  }
  if (logical.num_subgoals() > kMaxM2Subgoals) return std::nullopt;
  auto m2 = OptimizeOrderM2(logical, vs.instances, trace);
  out.physical = std::move(m2.plan);
  out.cost = m2.cost;
  if (model == CostModel::kM3) {
    // Too wide for the exhaustive M3 search: M2 order + SR drops.
    out.physical.drop_after = SupplementaryDrops(logical, out.physical.order);
    out.cost = MeasuredPlanCost(out.physical, vs.instances);
  }
  return out;
}

std::vector<ViewPlanner::CostedCandidate> ViewPlanner::CostAndPick(
    const ViewSnapshot& vs, const ConjunctiveQuery& query, CostModel model,
    const std::vector<ConjunctiveQuery>& rewritings,
    const std::vector<Atom>& filter_atoms, const TraceContext& trace) const {
  TraceSpan span(trace, "cost_and_pick");
  span.AddAttribute("candidates", static_cast<uint64_t>(rewritings.size()));
  const CostingScope costing(vs.costing.get(), vs.instances);
  const bool use_filters = model != CostModel::kM1 && !filter_atoms.empty();
  std::vector<CostedCandidate> costed;
  for (size_t r = 0; r < rewritings.size(); ++r) {
    ConjunctiveQuery logical = rewritings[r];
    bool filtered = false;
    if (use_filters && logical.num_subgoals() <= kMaxM2Subgoals) {
      auto advice = AdviseFilters(logical, filter_atoms, vs.instances);
      filtered = !advice.filters_added.empty();
      logical = std::move(advice.improved);
    }
    std::optional<PlanChoice> choice =
        CostRewriting(model, logical, query, vs, span.context());
    if (!choice.has_value()) continue;
    costed.push_back({std::move(*choice), filtered, r});
  }
  return costed;
}

void ViewPlanner::ListCandidates(const std::vector<CostedCandidate>& costed,
                                 size_t chosen,
                                 const std::vector<bool>& dropped,
                                 PlanExplanation* explain) {
  if (explain == nullptr) return;
  for (size_t c = 0; c < costed.size(); ++c) {
    PlanExplanation::Candidate candidate;
    candidate.logical = costed[c].choice.logical;
    candidate.cost = costed[c].choice.cost;
    candidate.filtered = costed[c].filtered;
    if (c == chosen) {
      candidate.chosen = true;
      candidate.reason = "chosen";
    } else if (!dropped.empty() && dropped[c]) {
      candidate.reason = "failed certification";
    } else {
      candidate.reason = "cost " + std::to_string(candidate.cost) +
                         " >= winner " +
                         std::to_string(costed[chosen].choice.cost);
    }
    explain->candidates.push_back(std::move(candidate));
  }
}

namespace {

// Limits for one rung of the degradation ladder: the configured grace work
// budget, plus a sliver of deadline when the request governor installed
// around the call is deadline-bound (recovery must not cost multiples of the
// deadline the caller asked for).
ResourceLimits GraceLimits(uint64_t work_budget) {
  ResourceLimits grace;
  grace.work_limit = work_budget;
  const ResourceGovernor* const request = ResourceGovernor::Current();
  if (request != nullptr && request->limits().deadline_ms > 0) {
    grace.deadline_ms = std::max(5.0, request->limits().deadline_ms / 4);
  }
  return grace;
}

}  // namespace

ViewPlanner::PlanResult ViewPlanner::MiniConFallback(
    const ViewSnapshot& vs, const ConjunctiveQuery& query, CostModel model,
    const CoreCoverResult& cc_result, const TraceContext& trace,
    PlanExplanation* explain) const {
  PlanResult out;
  out.stats = cc_result.stats;
  out.status = PlanStatus::kBudgetExhausted;
  out.exhaustion = cc_result.exhaustion;
  out.error = ExhaustionMessage(cc_result.exhaustion,
                                "before any rewriting was found");
  if (!options_.enable_minicon_fallback) return out;

  TraceSpan span(trace, "minicon_fallback");
  ResourceGovernor governor(GraceLimits(options_.fallback_work_budget));
  GovernorScope scope(&governor);
  // Same candidate discipline as the main pipeline, in MiniCon's
  // kAnyOverlap mode (snapshot index when available).
  CandidateFilterOptions filter;
  filter.enabled = options_.core_cover.use_view_index;
  filter.index = vs.index.get();
  const MiniConResult mc =
      MiniCon(query, vs.views, options_.core_cover.max_rewritings, filter);
  span.AddAttribute("equivalent_rewritings",
                    static_cast<uint64_t>(mc.equivalent_rewritings.size()));
  span.AddAttribute("aborted", mc.aborted);
  if (mc.equivalent_rewritings.empty()) return out;

  std::vector<CostedCandidate> costed = CostAndPick(
      vs, query, model, mc.equivalent_rewritings, {}, span.context());
  if (costed.empty()) {
    out.status = PlanStatus::kUnsupportedQueryTooLarge;
    out.error = TooWideToCostError(model);
    return out;
  }
  const size_t cheapest = static_cast<size_t>(
      std::min_element(costed.begin(), costed.end(),
                       [](const CostedCandidate& a, const CostedCandidate& b) {
                         return a.choice.cost < b.choice.cost;
                       }) -
      costed.begin());
  ListCandidates(costed, cheapest, {}, explain);
  // MiniCon's equivalence filter already verified the winner, but PlanChoice
  // promises a transportable certificate; build one under the same grace
  // budget (if even that dies, report exhaustion rather than an
  // uncertified plan).
  PlanChoice& choice = costed[cheapest].choice;
  auto certificate =
      CertifyEquivalentRewriting(choice.logical, mc.minimized_query, vs.views);
  if (!certificate.has_value()) return out;
  choice.certificate = std::move(*certificate);
  out.choice = std::move(choice);
  out.status = PlanStatus::kOk;
  out.error.clear();
  return out;
}

ViewPlanner::PlanResult ViewPlanner::PlanViaCoreCover(
    const ViewSnapshot& vs, const ConjunctiveQuery& query, CostModel model,
    const CanonicalQuery* canonical, const TraceContext& trace,
    PlanExplanation* explain) const {
  // M1 needs only the GMRs; M2/M3 search all minimal rewritings. The
  // snapshot's candidate index rides along (same catalog by construction).
  CoreCoverOptions cc = options_.core_cover;
  cc.trace = trace;
  if (cc.use_view_index && vs.index != nullptr) cc.view_index = vs.index.get();
  const CoreCoverResult result =
      model == CostModel::kM1 ? CoreCover(query, vs.views, cc)
                              : CoreCoverStar(query, vs.views, cc);
  const bool exhausted_run =
      result.status == CoreCoverStatus::kBudgetExhausted;

  PlanResult out;
  out.stats = result.stats;
  std::vector<Atom> filter_atoms;
  filter_atoms.reserve(result.filter_candidates.size());
  for (size_t i : result.filter_candidates) {
    filter_atoms.push_back(result.view_tuples[i].tuple.atom);
  }

  // Build the cache entry (canonical variable space) before costing;
  // negative outcomes are cached too — but NEVER a budget-exhausted run:
  // its rewriting list is incomplete, and serving it to later (possibly
  // generously budgeted) requests would poison them. Likewise a
  // canonicalization whose minimization was cut short: its "canonical" form
  // may not be the core's, so the entry would be filed under a label other
  // queries of the same equivalence class never produce — and its contents
  // were computed from a non-minimal body.
  std::shared_ptr<CachedPlan> entry;
  if (canonical != nullptr && canonical->minimize_complete && !exhausted_run) {
    entry = std::make_shared<CachedPlan>();
    entry->fingerprint = canonical->fingerprint;
    entry->status = result.status;
    entry->error = result.error;
    entry->has_rewriting = result.has_rewriting;
    entry->minimized = canonical->to_canonical.Apply(result.minimized_query);
    entry->rewritings.reserve(result.rewritings.size());
    for (const ConjunctiveQuery& r : result.rewritings) {
      entry->rewritings.push_back(canonical->to_canonical.Apply(r));
    }
    entry->filter_atoms.reserve(filter_atoms.size());
    for (const Atom& a : filter_atoms) {
      entry->filter_atoms.push_back(canonical->to_canonical.Apply(a));
    }
    entry->stats = result.stats;
  }

  if (explain != nullptr) explain->minimized = result.minimized_query;
  if (result.status == CoreCoverStatus::kUnsupportedQueryTooLarge) {
    out.status = PlanStatus::kUnsupportedQueryTooLarge;
    out.error = result.error;
  } else if (!result.has_rewriting) {
    if (exhausted_run) {
      // Nothing survived before the budget died; last rung of the ladder.
      out = MiniConFallback(vs, query, model, result, trace, explain);
    } else {
      out.status = PlanStatus::kNoRewriting;
    }
  } else {
    const Substitution none;
    FinishPlan(vs, query, model, result.rewritings, filter_atoms,
               result.minimized_query, entry.get(),
               canonical != nullptr ? canonical->to_canonical : none,
               canonical != nullptr ? canonical->from_canonical : none, trace,
               explain, &out);
  }

  if (entry != nullptr) {
    // Keyed to the snapshot's epoch: if a ReplaceViews landed while this
    // request planned, the insert is a silent no-op (the outcome describes
    // the retired view set). The snapshot's delta epoch rides along so an
    // AddViews/RemoveViews that landed mid-plan is reconciled per-query at
    // lookup time instead of silently serving a pre-delta plan.
    cache_->Insert(model, entry, vs.epoch, vs.delta_epoch);
  }
  return out;
}

ViewPlanner::PlanResult ViewPlanner::PlanFromEntry(
    const ViewSnapshot& vs, const ConjunctiveQuery& query, CostModel model,
    const CachedPlan& entry, const Substitution& transport,
    const TraceContext& trace, PlanExplanation* explain) const {
  PlanResult out;
  out.cache_hit = true;
  out.stats = entry.stats;
  const ConjunctiveQuery minimized = transport.Apply(entry.minimized);
  if (explain != nullptr) explain->minimized = minimized;
  if (entry.status != CoreCoverStatus::kOk) {
    out.status = PlanStatus::kUnsupportedQueryTooLarge;
    out.error = entry.error;
    return out;
  }
  if (!entry.has_rewriting) {
    out.status = PlanStatus::kNoRewriting;
    return out;
  }

  // Transport the cached logical rewritings into this query's variables;
  // FinishPlan re-costs them against the CURRENT view instances.
  std::vector<ConjunctiveQuery> rewritings;
  rewritings.reserve(entry.rewritings.size());
  for (const ConjunctiveQuery& r : entry.rewritings) {
    rewritings.push_back(transport.Apply(r));
  }
  std::vector<Atom> filter_atoms;
  filter_atoms.reserve(entry.filter_atoms.size());
  for (const Atom& a : entry.filter_atoms) {
    filter_atoms.push_back(transport.Apply(a));
  }
  FinishPlan(vs, query, model, rewritings, filter_atoms, minimized, &entry,
             InvertRenaming(transport), transport, trace, explain, &out);
  return out;
}

void ViewPlanner::FinishPlan(const ViewSnapshot& vs,
                             const ConjunctiveQuery& query, CostModel model,
                             const std::vector<ConjunctiveQuery>& rewritings,
                             const std::vector<Atom>& filter_atoms,
                             const ConjunctiveQuery& minimized,
                             const CachedPlan* entry,
                             const Substitution& to_entry,
                             const Substitution& from_entry,
                             const TraceContext& trace,
                             PlanExplanation* explain, PlanResult* out) const {
  static Counter* const uncertified_dropped =
      MetricsRegistry::Global().GetCounter("planner.uncertified_dropped");
  std::vector<CostedCandidate> costed =
      CostAndPick(vs, query, model, rewritings, filter_atoms, trace);
  if (costed.empty()) {
    // Under an exhausted budget the optimizers abort and report SIZE_MAX
    // costs, so the ranking degrades toward emission order but stays total;
    // only rewritings too wide to cost at all leave nothing to rank.
    out->status = PlanStatus::kUnsupportedQueryTooLarge;
    out->error = TooWideToCostError(model);
    return;
  }
  std::vector<size_t> ranked(costed.size());
  std::iota(ranked.begin(), ranked.end(), 0);
  std::stable_sort(ranked.begin(), ranked.end(), [&](size_t a, size_t b) {
    return costed[a].choice.cost < costed[b].choice.cost;
  });

  // Certify against the minimized core (the certificate covers the logical
  // plan; the M3 physical plan may execute a renamed variant, proven
  // answer-equal by the optimizer's renaming-safety test). A certificate the
  // entry already holds for a bare (unfiltered) candidate is reused once it
  // re-verifies after transport — transport is a pure renaming, but the
  // verifier is cheap and search-free, so trust nothing. A filtered
  // candidate differs from the cached rewriting and is certified afresh.
  TraceSpan certify_span(trace, "certify");
  const ResourceGovernor* const governor = ResourceGovernor::Current();
  std::optional<EquivalenceCertificate> certificate;
  bool reused = false;
  bool exhausted = false;
  std::vector<bool> dropped(costed.size(), false);
  size_t chosen = costed.size();  // none until one certifies or budget dies
  for (const size_t slot : ranked) {
    const CostedCandidate& c = costed[slot];
    if (entry != nullptr && !c.filtered) {
      if (auto cached = entry->certificate(c.rewriting)) {
        EquivalenceCertificate cert = TransportCertificate(*cached, from_entry);
        if (VerifyCertificate(cert, vs.views)) {
          certificate = std::move(cert);
          reused = true;
        }
      }
    }
    if (!certificate.has_value() &&
        (governor == nullptr || !governor->exhausted())) {
      certificate =
          CertifyEquivalentRewriting(c.choice.logical, minimized, vs.views);
    }
    exhausted = governor != nullptr && governor->exhausted();
    if (!certificate.has_value() && exhausted) {
      // Best-so-far grace certification: the certification search was
      // starved, not refuted. A fresh governor shields it from the exhausted
      // request governor (otherwise the dead budget would starve its own
      // recovery); the grace budget keeps it bounded.
      ResourceGovernor grace(GraceLimits(options_.fallback_work_budget));
      GovernorScope scope(&grace);
      certificate =
          CertifyEquivalentRewriting(c.choice.logical, minimized, vs.views);
      certify_span.AddAttribute("grace", true);
    }
    if (certificate.has_value() || exhausted) {
      chosen = slot;
      break;
    }
    // Refuted with budget to spare: the rewriting search emitted a
    // non-equivalent cover. Never serve it; try the next-cheapest.
    dropped[slot] = true;
    uncertified_dropped->Increment();
  }
  certify_span.AddAttribute("reused_cached", reused);
  certify_span.End();
  ListCandidates(costed, chosen, dropped, explain);
  if (!certificate.has_value()) {
    if (exhausted) {
      out->status = PlanStatus::kBudgetExhausted;
      out->exhaustion = governor->exhaustion();
      out->error = ExhaustionMessage(
          out->exhaustion, "before the chosen rewriting could be certified");
    } else {
      out->status = PlanStatus::kNoRewriting;
      out->error = std::to_string(costed.size()) +
                   " candidate rewriting(s) failed certification";
    }
    return;
  }
  CostedCandidate& winner = costed[chosen];
  if (entry != nullptr && !winner.filtered && !reused) {
    entry->StoreCertificate(winner.rewriting,
                            TransportCertificate(*certificate, to_entry));
  }
  winner.choice.certificate = std::move(*certificate);
  out->choice = std::move(winner.choice);
  out->status = PlanStatus::kOk;
}

ViewPlanner::PlanResult ViewPlanner::Plan(const ConjunctiveQuery& query,
                                          CostModel model) const {
  return PlanInternal(*CurrentSnapshot(), query, model, TraceContext{},
                      nullptr);
}

ViewPlanner::PlanResult ViewPlanner::Plan(const ConjunctiveQuery& query,
                                          CostModel model,
                                          TraceSink* trace) const {
  return PlanInternal(*CurrentSnapshot(), query, model,
                      TraceContext{trace, 0}, nullptr);
}

ViewPlanner::PlanResult ViewPlanner::Plan(const ConjunctiveQuery& query,
                                          CostModel model,
                                          const TraceContext& trace) const {
  return PlanInternal(*CurrentSnapshot(), query, model, trace, nullptr);
}

ViewPlanner::PlanResult ViewPlanner::Plan(const ConjunctiveQuery& query,
                                          const PlanRequestOptions& request,
                                          TraceSink* trace) const {
  // Same governed-call contract as PlanningService::Serve: install a fresh
  // governor from the request's limits (deadline measured from here) so
  // the whole pipeline observes them, then plan under the request's model.
  const ScopedGovernor governed(request.limits());
  return Plan(query, request.model, trace);
}

ViewPlanner::CacheLookup ViewPlanner::LookUp(const ViewSnapshot& vs,
                                             const ConjunctiveQuery& query,
                                             CostModel model,
                                             const TraceContext& trace) const {
  CacheLookup out;
  {
    TraceSpan canon_span(trace, "canonicalize");
    out.canonical = CanonicalizeQuery(query);
    canon_span.AddAttribute("exact", out.canonical.fingerprint.exact);
  }
  TraceSpan lookup_span(trace, "cache_lookup");
  std::optional<Substitution> fallback;
  out.entry = cache_->Lookup(out.canonical.fingerprint, model,
                             out.canonical.minimized, &fallback, vs.epoch,
                             vs.delta_epoch);
  lookup_span.AddAttribute("outcome", out.entry != nullptr ? "hit" : "miss");
  if (out.entry != nullptr) {
    out.transport = fallback ? *std::move(fallback)
                             : out.canonical.from_canonical;
  }
  return out;
}

std::optional<ViewPlanner::PlanResult> ViewPlanner::TryPlanFromCache(
    const ConjunctiveQuery& query, CostModel model) const {
  if (!options_.enable_cache || query.HasBuiltins()) return std::nullopt;
  const std::shared_ptr<const ViewSnapshot> snapshot = CurrentSnapshot();
  const CacheLookup lookup = LookUp(*snapshot, query, model, {});
  if (lookup.entry == nullptr) return std::nullopt;
  PlanResult result = PlanFromEntry(*snapshot, query, model, *lookup.entry,
                                    lookup.transport, {}, nullptr);
  StampExhaustion(&result);
  return result;
}

ViewPlanner::PlanResult ViewPlanner::PlanInternal(
    const ViewSnapshot& vs, const ConjunctiveQuery& query, CostModel model,
    const TraceContext& trace, PlanExplanation* explain) const {
  static Counter* const plan_calls =
      MetricsRegistry::Global().GetCounter("planner.plans");
  static Histogram* const plan_us =
      MetricsRegistry::Global().GetHistogram("planner.plan_us");
  plan_calls->Increment();
  const Timer timer;
  TraceSpan span(trace, "plan");
  span.AddAttribute("model", CostModelName(model));

  PlanResult result;
  std::string_view disposition;
  // Builtin comparison subgoals are outside the fingerprint/minimization
  // machinery; such queries bypass the cache (and fail later checks exactly
  // as they always did).
  if (!options_.enable_cache || query.HasBuiltins()) {
    disposition = options_.enable_cache ? "bypass" : "disabled";
    result = PlanViaCoreCover(vs, query, model, nullptr, span.context(),
                              explain);
  } else {
    const CacheLookup lookup = LookUp(vs, query, model, span.context());
    if (lookup.entry != nullptr) {
      disposition = "hit";
      result = PlanFromEntry(vs, query, model, *lookup.entry, lookup.transport,
                             span.context(), explain);
    } else {
      disposition = "miss";
      result = PlanViaCoreCover(vs, query, model, &lookup.canonical,
                                span.context(), explain);
    }
  }
  StampExhaustion(&result);
  span.AddAttribute("cache", disposition);
  span.AddAttribute("status", PlanStatusName(result.status));
  if (result.exhaustion.kind != BudgetKind::kNone) {
    span.AddAttribute("budget_kind", BudgetKindName(result.exhaustion.kind));
    span.AddAttribute("budget_site", result.exhaustion.site);
    span.AddAttribute("degraded", result.degraded);
  }
  plan_us->Record(static_cast<uint64_t>(timer.ElapsedMillis() * 1000.0));
  if (explain != nullptr) {
    explain->status = result.status;
    explain->error = result.error;
    explain->model = model;
    explain->cache_disposition = std::string(disposition);
    explain->query = query;
    explain->choice = result.choice;
    explain->stats = result.stats;
    explain->cache_hit = result.cache_hit;
    explain->exhaustion = result.exhaustion;
    explain->degraded = result.degraded;
  }
  return result;
}

ViewPlanner::PlanExplanation ViewPlanner::Explain(
    const ConjunctiveQuery& query, const PlanRequestOptions& request,
    TraceSink* trace) const {
  PlanExplanation explain;
  // One snapshot for the planning run AND the re-measurement below, so the
  // breakdown describes the same view generation the plan was chosen on.
  const std::shared_ptr<const ViewSnapshot> snapshot = CurrentSnapshot();
  const ViewSnapshot& vs = *snapshot;
  const CostingScope costing(vs.costing.get(), vs.instances);
  const PlanResult result = [&] {
    const ScopedGovernor governed(request.limits());
    return PlanInternal(vs, query, request.model, TraceContext{trace, 0},
                        &explain);
  }();
  if (!result.ok()) return explain;

  // Re-measure the chosen logical plan under all three cost models so the
  // explanation can contrast them (the planning decision above used only
  // the requested model). A model the rewriting is too wide for is left
  // out. M3's renaming-safety test runs against the minimized core, which
  // is equivalent to the query, so it accepts the same drops.
  const ConjunctiveQuery& logical = result.choice->logical;
  for (const CostModel measured :
       {CostModel::kM1, CostModel::kM2, CostModel::kM3}) {
    const std::optional<PlanChoice> costed =
        CostRewriting(measured, logical, explain.minimized, vs, {});
    if (!costed.has_value()) continue;
    PlanExplanation::ModelBreakdown b;
    b.model = measured;
    b.cost = costed->cost;
    b.order = costed->physical.order;
    const PlanExecution exec = ExecutePlan(costed->physical, vs.instances);
    b.relation_sizes = exec.relation_sizes;
    // M1 counts subgoals; its intermediate sizes are not part of its cost.
    if (measured != CostModel::kM1) b.state_sizes = exec.state_sizes;
    explain.breakdown.push_back(std::move(b));
  }
  return explain;
}

void ViewPlanner::ReplaceViews(ViewSet views, Database view_instances) {
  for (const View& v : views) {
    VBR_CHECK_MSG(v.IsSafe(), "unsafe view definition");
  }
  // Serialize swaps so the (epoch bump, snapshot publish) pairs of two
  // concurrent calls cannot interleave: the published snapshot always
  // carries the cache's current epoch.
  std::lock_guard<std::mutex> replace_lock(replace_mu_);
  // Bump FIRST: from this instant, in-flight requests pinned to the old
  // snapshot can no longer insert (their epoch is stale), and any entry
  // they race in around the bump is dropped by Lookup.
  const uint64_t epoch = cache_->BumpEpoch();
  // Containment verdicts never go stale (they depend only on the two
  // queries), but the old view bodies stop recurring once the set is
  // swapped, so drop the memo rather than letting dead pairs occupy it.
  ContainmentMemo::Global().Clear();
  auto snapshot = std::make_shared<ViewSnapshot>();
  snapshot->views = std::move(views);
  snapshot->instances = std::move(view_instances);
  snapshot->epoch = epoch;
  snapshot->delta_epoch = cache_->delta_epoch();
  if (options_.core_cover.use_view_index) {
    snapshot->index = std::make_shared<ViewIndex>(snapshot->views);
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
}

void ViewPlanner::AddViews(ViewSet added, Database added_instances) {
  for (const View& v : added) {
    VBR_CHECK_MSG(v.IsSafe(), "unsafe view definition");
  }
  if (added.empty()) return;
  // Serialized with ReplaceViews and other deltas: (fence, publish) pairs
  // must not interleave.
  std::lock_guard<std::mutex> replace_lock(replace_mu_);
  const std::shared_ptr<const ViewSnapshot> cur = CurrentSnapshot();
  std::vector<ViewSummary> changed;
  changed.reserve(added.size());
  for (const View& v : added) changed.push_back(SummarizeView(v));
  // Fence BEFORE publish: once a request can pin the new catalog, any
  // lookup it issues already sees the fence, so a pre-delta entry for a
  // query the added views could serve is never returned to it.
  const uint64_t delta_epoch = cache_->RecordDelta(std::move(changed));
  auto snapshot = std::make_shared<ViewSnapshot>();
  snapshot->views = cur->views;
  snapshot->views.insert(snapshot->views.end(), added.begin(), added.end());
  snapshot->instances = cur->instances;
  snapshot->instances.MergeFrom(added_instances);
  snapshot->epoch = cur->epoch;
  snapshot->delta_epoch = delta_epoch;
  if (options_.core_cover.use_view_index) {
    // Incremental: existing views keep their summaries and postings; the
    // added views append (their ids continue the catalog numbering).
    snapshot->index = cur->index != nullptr
                          ? cur->index->WithAdded(added)
                          : std::make_shared<ViewIndex>(snapshot->views);
  }
  // The ContainmentMemo stays: its verdicts depend only on the two queries
  // compared, and the surviving views keep recurring.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
}

size_t ViewPlanner::RemoveViews(const std::vector<std::string>& names) {
  if (names.empty()) return 0;
  std::unordered_set<Symbol> doomed;
  for (const std::string& name : names) {
    doomed.insert(SymbolTable::Global().Intern(name));
  }
  std::lock_guard<std::mutex> replace_lock(replace_mu_);
  const std::shared_ptr<const ViewSnapshot> cur = CurrentSnapshot();
  std::vector<size_t> keep;
  std::vector<ViewSummary> changed;
  std::vector<Symbol> removed_predicates;
  keep.reserve(cur->views.size());
  for (size_t i = 0; i < cur->views.size(); ++i) {
    const Symbol head = cur->views[i].head().predicate();
    if (doomed.count(head) > 0) {
      changed.push_back(SummarizeView(cur->views[i]));
      removed_predicates.push_back(head);
    } else {
      keep.push_back(i);
    }
  }
  const size_t removed = cur->views.size() - keep.size();
  if (removed == 0) return 0;  // nothing matched: no fence, no new snapshot
  const uint64_t delta_epoch = cache_->RecordDelta(std::move(changed));
  auto snapshot = std::make_shared<ViewSnapshot>();
  snapshot->views.reserve(keep.size());
  for (size_t i : keep) snapshot->views.push_back(cur->views[i]);
  snapshot->instances = cur->instances;
  for (Symbol predicate : removed_predicates) {
    snapshot->instances.Remove(predicate);
  }
  snapshot->epoch = cur->epoch;
  snapshot->delta_epoch = delta_epoch;
  if (options_.core_cover.use_view_index) {
    snapshot->index = cur->index != nullptr
                          ? cur->index->WithRemoved(keep)
                          : std::make_shared<ViewIndex>(snapshot->views);
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
  return removed;
}

Relation ViewPlanner::Execute(const PlanChoice& choice) const {
  return ExecutePlan(choice.physical, CurrentSnapshot()->instances).answer;
}

std::optional<Relation> ViewPlanner::Answer(
    const ConjunctiveQuery& query) const {
  // Plan and execute against ONE pinned snapshot so the answer is computed
  // over the same instances the plan was costed on.
  const std::shared_ptr<const ViewSnapshot> snapshot = CurrentSnapshot();
  PlanResult result =
      PlanInternal(*snapshot, query, CostModel::kM2, TraceContext{}, nullptr);
  if (!result.ok()) return std::nullopt;
  return ExecutePlan(result.choice->physical, snapshot->instances).answer;
}

PlanCacheCounters ViewPlanner::cache_counters() const {
  return cache_->counters();
}

size_t ViewPlanner::cache_size() const { return cache_->size(); }

uint64_t ViewPlanner::cache_epoch() const { return cache_->epoch(); }

uint64_t ViewPlanner::delta_epoch() const { return cache_->delta_epoch(); }

}  // namespace vbr
