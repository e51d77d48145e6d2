// Resource-governed planning end to end (ISSUE: deadlines, work budgets,
// cooperative cancellation, graceful degradation).
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
#include <vector>

#include "common/budget.h"
#include "common/fault_injection.h"
#include "common/metrics.h"
#include "engine/materialize.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
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

ViewPlanner::Options GovernedOptions(ResourceLimits budget) {
  ViewPlanner::Options options;
  options.budget = budget;
  options.fallback_work_budget = 5'000;  // keep ladder rungs test-fast
  return options;
}

class BudgetGovernanceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// Acceptance criterion: the adversarial workload under a 100 ms deadline
// returns promptly with kBudgetExhausted or a certified best-so-far plan.
TEST_F(BudgetGovernanceTest, AdversarialChainRespectsDeadline) {
  const Workload w = AdversarialChain();
  ResourceLimits budget;
  budget.deadline_ms = 100;
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      GovernedOptions(budget));

  const auto start = std::chrono::steady_clock::now();
  const auto result = planner.Plan(w.query, CostModel::kM2);
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
    ResourceLimits budget;
    budget.work_limit = work_limit;
    ViewPlanner planner(w.views, instances, GovernedOptions(budget));
    const auto result = planner.Plan(w.query, CostModel::kM2);
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

  ResourceLimits budget;
  budget.work_limit = uint64_t{1} << 40;
  ViewPlanner governed(w.views, instances, GovernedOptions(budget));
  const auto result = governed.Plan(w.query, CostModel::kM2);
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

  // A huge work limit installs a governor that never trips on its own; the
  // armed fault is the only exhaustion source.
  ResourceLimits budget;
  budget.work_limit = uint64_t{1} << 40;
  ViewPlanner planner(w.views, instances, GovernedOptions(budget));
  FaultRegistry::Global().Arm("corecover.minimize",
                              FaultKind::kBudgetExhausted, 1);
  const auto faulted = planner.Plan(w.query, CostModel::kM2);
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
  ResourceLimits budget;
  budget.work_limit = uint64_t{1} << 40;  // never trips on its own
  budget.search_node_cap = 4;  // every backtracking search aborts
  ViewPlanner::Options options = GovernedOptions(budget);
  options.enable_minicon_fallback = false;
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      options);
  const auto result = planner.Plan(w.query, CostModel::kM2);
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
  ResourceLimits budget;
  budget.work_limit = uint64_t{1} << 40;
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      GovernedOptions(budget));
  FaultRegistry::Global().Arm("corecover.set_cover", FaultKind::kStageAbort,
                              1);
  const auto result = planner.Plan(w.query, CostModel::kM2);
  FaultRegistry::Global().Reset();
  ASSERT_EQ(result.status, PlanStatus::kOk)
      << PlanStatusName(result.status) << " " << result.error;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.exhaustion.kind, BudgetKind::kInjected);
  EXPECT_TRUE(VerifyCertificate(result.choice->certificate, w.views));
  // The partial (empty) CoreCover outcome must not have been cached.
  EXPECT_EQ(planner.cache_counters().insertions, 0u);
}

// Disabling the fallback turns the same scenario into kBudgetExhausted.
TEST_F(BudgetGovernanceTest, FallbackCanBeDisabled) {
  const Workload w = SmallChain();
  ResourceLimits budget;
  budget.work_limit = uint64_t{1} << 40;
  ViewPlanner::Options options = GovernedOptions(budget);
  options.enable_minicon_fallback = false;
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      options);
  FaultRegistry::Global().Arm("corecover.set_cover", FaultKind::kStageAbort,
                              1);
  const auto result = planner.Plan(w.query, CostModel::kM2);
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
  ResourceLimits budget;
  budget.deadline_ms = 50;
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      GovernedOptions(budget));
  const auto result = planner.Plan(w.query, CostModel::kM2);
  ASSERT_NE(result.exhaustion.kind, BudgetKind::kNone);
  EXPECT_EQ(deadline_metric->value(), deadline_before + 1);
  EXPECT_EQ(exhausted_metric->value(), exhausted_before + 1);
}

// Explain mirrors the budget outcome and the rewriting-cap flag
// (satellite 2): both must be visible in the text and JSON renderings.
TEST_F(BudgetGovernanceTest, ExplainSurfacesBudgetAndTruncation) {
  const Workload w = SmallChain();
  ResourceLimits budget;
  budget.work_limit = uint64_t{1} << 40;
  ViewPlanner::Options options = GovernedOptions(budget);
  options.core_cover.max_rewritings = 1;  // force the cap
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      options);
  FaultRegistry::Global().Arm("cost.m2", FaultKind::kBudgetExhausted, 1);
  const auto explanation = planner.Explain(w.query, CostModel::kM2);
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

// PlanMany under a tiny budget: every batch member gets a valid status, and
// an exhausted representative never feeds its duplicates a partial entry.
TEST_F(BudgetGovernanceTest, PlanManySurvivesExhaustedRepresentative) {
  const Workload w = AdversarialChain();
  ResourceLimits budget;
  budget.work_limit = 100;  // dies in CoreCover for every member
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      GovernedOptions(budget));
  const std::vector<ConjunctiveQuery> batch = {w.query, w.query, w.query};
  const auto results = planner.PlanMany(batch, CostModel::kM2);
  ASSERT_EQ(results.size(), batch.size());
  for (const auto& result : results) {
    ASSERT_TRUE(result.status == PlanStatus::kOk ||
                result.status == PlanStatus::kBudgetExhausted)
        << PlanStatusName(result.status);
    if (result.ok()) {
      EXPECT_TRUE(VerifyCertificate(result.choice->certificate, w.views));
    }
  }
  EXPECT_EQ(planner.cache_counters().insertions, 0u);
}

}  // namespace
}  // namespace vbr
