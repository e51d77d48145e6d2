// Resource-governed planning end to end: deadlines, work budgets,
// cooperative cancellation, graceful degradation.
//
// The adversarial workload is a symmetric chain — every subgoal the same
// binary predicate — with 1-2 subgoal views over the same predicate. The
// minimal-cover space is the set of segment tilings of the chain and the
// M2 subset-DP runs over up-to-20-subgoal rewritings, so the ungoverned
// planner burns >10 seconds on it (measured; see DESIGN.md "Resource
// governance"), while a governed run must come back around its deadline
// with either kBudgetExhausted or a certified best-so-far plan.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "common/budget.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "engine/materialize.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "planner/service.h"
#include "rewrite/certificate.h"
#include "workload/generator.h"

namespace vbr {
namespace {

// The >10s-ungoverned symmetric-chain workload. Do NOT plan it without a
// budget in a test.
Workload AdversarialChain() {
  WorkloadConfig wc;
  wc.shape = QueryShape::kChain;
  wc.num_query_subgoals = 20;
  wc.num_predicates = 1;  // symmetric: every subgoal is p0
  wc.num_views = 16;
  wc.min_view_subgoals = 1;
  wc.max_view_subgoals = 2;
  wc.seed = 7;
  return GenerateWorkload(wc);
}

// A small workload every rung of the ladder can afford.
Workload SmallChain() {
  WorkloadConfig wc;
  wc.shape = QueryShape::kChain;
  wc.num_query_subgoals = 4;
  wc.num_predicates = 2;
  wc.num_views = 8;
  wc.seed = 3;
  return GenerateWorkload(wc);
}

// The request budget travels with each Plan call (PlanRequestOptions); the
// planner options only keep the ladder rungs test-fast.
ViewPlanner::Options GovernedOptions() {
  ViewPlanner::Options options;
  options.fallback_work_budget = 5'000;
  return options;
}

// A huge work limit installs a governor that never trips on its own, so
// armed faults are the only exhaustion source.
constexpr uint64_t kUntrippedWork = uint64_t{1} << 40;

class BudgetGovernanceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// Acceptance criterion: the adversarial workload under a 100 ms deadline
// returns promptly with kBudgetExhausted or a certified best-so-far plan.
TEST_F(BudgetGovernanceTest, AdversarialChainRespectsDeadline) {
  const Workload w = AdversarialChain();
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      GovernedOptions());

  const auto start = std::chrono::steady_clock::now();
  const auto result =
      planner.Plan(w.query, {.model = CostModel::kM2, .deadline_ms = 100});
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  // Generous CI margin: the contract is "same order as the deadline", not
  // the >10'000 ms the ungoverned run takes.
  EXPECT_LT(elapsed_ms, 3000.0);
  ASSERT_TRUE(result.status == PlanStatus::kOk ||
              result.status == PlanStatus::kBudgetExhausted)
      << PlanStatusName(result.status);
  EXPECT_EQ(result.exhaustion.kind, BudgetKind::kDeadline);
  EXPECT_FALSE(result.exhaustion.site.empty());
  if (result.ok()) {
    EXPECT_TRUE(result.degraded);
    ASSERT_TRUE(result.choice.has_value());
    EXPECT_TRUE(VerifyCertificate(result.choice->certificate, w.views));
  } else {
    EXPECT_FALSE(result.error.empty());
  }
}

// The same workload under pure work budgets: every rung of the ladder ends
// in a valid status, every produced plan carries a verifying certificate,
// and budget-exhausted outcomes are never cached.
TEST_F(BudgetGovernanceTest, WorkBudgetLadderIsSoundAtEveryLevel) {
  const Workload w = AdversarialChain();
  const Database instances = MaterializeViews(w.views, Database{});
  for (const uint64_t work_limit : {uint64_t{10}, uint64_t{500},
                                    uint64_t{2000}, uint64_t{5000}}) {
    ViewPlanner planner(w.views, instances, GovernedOptions());
    const auto result = planner.Plan(
        w.query, {.model = CostModel::kM2, .work_limit = work_limit});
    ASSERT_TRUE(result.status == PlanStatus::kOk ||
                result.status == PlanStatus::kBudgetExhausted)
        << "work_limit=" << work_limit << ": "
        << PlanStatusName(result.status);
    if (result.ok()) {
      ASSERT_TRUE(result.choice.has_value());
      EXPECT_TRUE(VerifyCertificate(result.choice->certificate, w.views))
          << "work_limit=" << work_limit;
      EXPECT_TRUE(result.degraded);
    } else {
      EXPECT_EQ(result.exhaustion.kind, BudgetKind::kWork);
      EXPECT_FALSE(result.exhaustion.site.empty());
      EXPECT_FALSE(result.error.empty());
      // Satellite: a budget-exhausted logical outcome must not be cached.
      EXPECT_EQ(planner.cache_size(), 0u) << "work_limit=" << work_limit;
      EXPECT_EQ(planner.cache_counters().insertions, 0u);
    }
    EXPECT_GT(result.stats.work_used, 0u);
  }
}

// An untight budget on the same planner behaves exactly like no budget:
// the governed result must equal the ungoverned one.
TEST_F(BudgetGovernanceTest, GenerousBudgetMatchesUngoverned) {
  const Workload w = SmallChain();
  const Database instances = MaterializeViews(w.views, Database{});
  ViewPlanner ungoverned(w.views, instances);
  const auto baseline = ungoverned.Plan(w.query, CostModel::kM2);
  ASSERT_TRUE(baseline.ok());

  ViewPlanner governed(w.views, instances, GovernedOptions());
  const auto result = governed.Plan(
      w.query, {.model = CostModel::kM2, .work_limit = kUntrippedWork});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.exhaustion.kind, BudgetKind::kNone);
  EXPECT_EQ(result.choice->logical.ToString(),
            baseline.choice->logical.ToString());
  EXPECT_EQ(result.choice->cost, baseline.choice->cost);
}

// Cache-poisoning regression (satellite 1): a run whose CoreCover stage is
// forced to die must leave the cache empty, and the next identical query on
// the SAME planner must re-plan from scratch and get the full answer.
TEST_F(BudgetGovernanceTest, ExhaustedRunDoesNotPoisonTheCache) {
  const Workload w = SmallChain();
  const Database instances = MaterializeViews(w.views, Database{});
  ViewPlanner baseline_planner(w.views, instances);
  const auto baseline = baseline_planner.Plan(w.query, CostModel::kM2);
  ASSERT_TRUE(baseline.ok());

  ViewPlanner planner(w.views, instances, GovernedOptions());
  FaultRegistry::Global().Arm("corecover.minimize",
                              FaultKind::kBudgetExhausted, 1);
  const auto faulted = planner.Plan(
      w.query, {.model = CostModel::kM2, .work_limit = kUntrippedWork});
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(faulted.status == PlanStatus::kOk ||
              faulted.status == PlanStatus::kBudgetExhausted);
  EXPECT_NE(faulted.exhaustion.kind, BudgetKind::kNone);
  if (!faulted.ok()) {
    EXPECT_EQ(planner.cache_size(), 0u);
  }

  // The retry must not be served a partial enumeration from the cache.
  const auto retried = planner.Plan(w.query, CostModel::kM2);
  ASSERT_TRUE(retried.ok()) << PlanStatusName(retried.status);
  EXPECT_FALSE(retried.degraded);
  EXPECT_EQ(retried.choice->logical.ToString(),
            baseline.choice->logical.ToString());
  EXPECT_EQ(retried.choice->cost, baseline.choice->cost);
  EXPECT_TRUE(VerifyCertificate(retried.choice->certificate, w.views));
}

// An exhausted Minimize is a first-class budget outcome (satellite): when
// every removal probe aborts under a tiny per-search node cap, the planner
// must report kBudgetExhausted at the minimize stage — NOT treat the aborted
// probes as "no mapping" and cache the non-minimal result as a full answer.
TEST_F(BudgetGovernanceTest, ExhaustedMinimizeSurfacesAndSkipsTheCache) {
  const Workload w = AdversarialChain();
  ViewPlanner::Options options = GovernedOptions();
  options.enable_minicon_fallback = false;
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      options);
  const auto result = planner.Plan(
      w.query, {.model = CostModel::kM2,
                .work_limit = kUntrippedWork,
                .search_node_cap = 4});  // every backtracking search aborts
  ASSERT_EQ(result.status, PlanStatus::kBudgetExhausted)
      << PlanStatusName(result.status);
  EXPECT_EQ(result.exhaustion.kind, BudgetKind::kWork);
  EXPECT_EQ(result.exhaustion.site, "corecover.minimize");
  EXPECT_EQ(planner.cache_size(), 0u);
  EXPECT_EQ(planner.cache_counters().insertions, 0u);
}

// The MiniCon fallback rung: kill set-cover before it emits anything, so
// CoreCover ends budget-exhausted with no rewriting; the budgeted MiniCon
// retry must still deliver a certified plan.
TEST_F(BudgetGovernanceTest, MiniConFallbackRecoversAPlan) {
  const Workload w = SmallChain();
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      GovernedOptions());
  FaultRegistry::Global().Arm("corecover.set_cover", FaultKind::kStageAbort,
                              1);
  const auto result = planner.Plan(
      w.query, {.model = CostModel::kM2, .work_limit = kUntrippedWork});
  FaultRegistry::Global().Reset();
  ASSERT_EQ(result.status, PlanStatus::kOk)
      << PlanStatusName(result.status) << " " << result.error;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.exhaustion.kind, BudgetKind::kInjected);
  EXPECT_TRUE(VerifyCertificate(result.choice->certificate, w.views));
  // The partial (empty) CoreCover outcome must not have been cached.
  EXPECT_EQ(planner.cache_counters().insertions, 0u);
}

// The grace rungs take their deadline slice from the request governor, so
// a request deadline bounds the ladder on every path. With unlimited grace
// work (fallback_work_budget = 0) and set cover killed, the MiniCon fallback
// over the adversarial chain runs for seconds unless that slice stops it.
TEST_F(BudgetGovernanceTest, GraceRungsHonourTheRequestDeadline) {
  const Workload w = AdversarialChain();
  ViewPlanner::Options options;
  options.fallback_work_budget = 0;  // unlimited grace work
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      options);
  FaultRegistry::Global().Arm("corecover.set_cover", FaultKind::kStageAbort,
                              1);
  constexpr double kDeadlineMs = 100;
  const auto start = std::chrono::steady_clock::now();
  const auto result = planner.Plan(
      w.query, {.model = CostModel::kM2, .deadline_ms = kDeadlineMs});
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  FaultRegistry::Global().Reset();

  // The request deadline plus a quarter of it per grace rung; the 20x
  // bound leaves room for a loaded or sanitizer-instrumented host.
  EXPECT_LT(elapsed_ms, 20 * kDeadlineMs);
  ASSERT_TRUE(result.status == PlanStatus::kOk ||
              result.status == PlanStatus::kBudgetExhausted)
      << PlanStatusName(result.status);
  EXPECT_NE(result.exhaustion.kind, BudgetKind::kNone);
  if (result.ok()) {
    EXPECT_TRUE(result.degraded);
    EXPECT_TRUE(VerifyCertificate(result.choice->certificate, w.views));
  }
}

// One budget path: a work-budgeted request planned in-process through
// Plan(query, PlanRequestOptions) and the same request served by a
// PlanningService come out identical — status, exhaustion site, rewriting
// and cost — at every rung of the ladder.
TEST_F(BudgetGovernanceTest, InProcessPlanMatchesTheServiceUnderAWorkBudget) {
  const Workload w = AdversarialChain();
  const Database instances = MaterializeViews(w.views, Database{});
  auto key = [](const ViewPlanner::PlanResult& r) {
    std::string s = PlanStatusName(r.status);
    s += "|" + std::string(BudgetKindName(r.exhaustion.kind));
    s += "|" + r.exhaustion.site;
    s += "|" + std::to_string(r.degraded);
    if (r.choice.has_value()) {
      s += "|" + r.choice->logical.ToString();
      s += "|" + std::to_string(r.choice->cost);
    }
    return s;
  };
  for (const uint64_t work_limit : {uint64_t{10}, uint64_t{500},
                                    uint64_t{2000}, uint64_t{5000}}) {
    const PlanRequestOptions request{.model = CostModel::kM2,
                                     .work_limit = work_limit};
    ViewPlanner in_process(w.views, instances, GovernedOptions());
    const std::string expected = key(in_process.Plan(w.query, request));

    ViewPlanner served(w.views, instances, GovernedOptions());
    PlanningService service(&served, PlanningService::Options{});
    const PlanningService::PlanResponse response =
        service.Plan({.query = w.query, .options = request});
    service.Shutdown();
    ASSERT_TRUE(response.ok()) << "work_limit=" << work_limit;
    EXPECT_EQ(key(response.result), expected) << "work_limit=" << work_limit;
  }
}

// Disabling the fallback turns the same scenario into kBudgetExhausted.
TEST_F(BudgetGovernanceTest, FallbackCanBeDisabled) {
  const Workload w = SmallChain();
  ViewPlanner::Options options = GovernedOptions();
  options.enable_minicon_fallback = false;
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      options);
  FaultRegistry::Global().Arm("corecover.set_cover", FaultKind::kStageAbort,
                              1);
  const auto result = planner.Plan(
      w.query, {.model = CostModel::kM2, .work_limit = kUntrippedWork});
  FaultRegistry::Global().Reset();
  EXPECT_EQ(result.status, PlanStatus::kBudgetExhausted);
  EXPECT_FALSE(result.choice.has_value());
  EXPECT_FALSE(result.error.empty());
}

// planner.deadline_exceeded ticks exactly on deadline deaths.
TEST_F(BudgetGovernanceTest, DeadlineMetricIncrements) {
  Counter* const deadline_metric =
      MetricsRegistry::Global().GetCounter("planner.deadline_exceeded");
  Counter* const exhausted_metric =
      MetricsRegistry::Global().GetCounter("planner.budget_exhausted");
  const uint64_t deadline_before = deadline_metric->value();
  const uint64_t exhausted_before = exhausted_metric->value();

  const Workload w = AdversarialChain();
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      GovernedOptions());
  const auto result =
      planner.Plan(w.query, {.model = CostModel::kM2, .deadline_ms = 50});
  ASSERT_NE(result.exhaustion.kind, BudgetKind::kNone);
  EXPECT_EQ(deadline_metric->value(), deadline_before + 1);
  EXPECT_EQ(exhausted_metric->value(), exhausted_before + 1);
}

// Explain mirrors the budget outcome and the rewriting-cap flag
// (satellite 2): both must be visible in the text and JSON renderings.
TEST_F(BudgetGovernanceTest, ExplainSurfacesBudgetAndTruncation) {
  const Workload w = SmallChain();
  ViewPlanner::Options options = GovernedOptions();
  options.core_cover.max_rewritings = 1;  // force the cap
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      options);
  FaultRegistry::Global().Arm("cost.m2", FaultKind::kBudgetExhausted, 1);
  const auto explanation = planner.Explain(
      w.query, {.model = CostModel::kM2, .work_limit = kUntrippedWork});
  FaultRegistry::Global().Reset();

  ASSERT_TRUE(explanation.ok()) << explanation.error;
  EXPECT_TRUE(explanation.degraded);
  EXPECT_NE(explanation.exhaustion.kind, BudgetKind::kNone);
  const std::string text = explanation.ToText();
  EXPECT_NE(text.find("budget"), std::string::npos) << text;
  EXPECT_NE(text.find("max_rewritings"), std::string::npos) << text;
  const std::string json = explanation.ToJson();
  EXPECT_NE(json.find("\"budget\":{\"exhausted\":true"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"hit_rewriting_cap\":true"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace vbr
