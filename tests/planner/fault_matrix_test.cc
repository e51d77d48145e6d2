// The fault-injection matrix (ISSUE tentpole): discover every governed
// check site the planner crosses on a workload, then for each
// site x fault-kind x Nth-crossing force an exhaustion there and assert the
// three matrix invariants:
//
//   1. no crash — the planner returns a PlanResult, never aborts;
//   2. status correctness — the outcome is kOk (with a verifying
//      certificate, degraded when the budget died) or kBudgetExhausted
//      (with a populated exhaustion record and error message);
//   3. no cache poisoning — after disarming, the SAME planner instance
//      re-plans the query to the exact ungoverned answer.
//
// Runs single-threaded: crossing counts are process-global, so Nth-crossing
// targeting is only deterministic without concurrent site traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/fault_injection.h"
#include "engine/materialize.h"
#include "planner/planner.h"
#include "rewrite/certificate.h"
#include "workload/generator.h"

namespace vbr {
namespace {

Workload MatrixWorkload() {
  WorkloadConfig wc;
  wc.shape = QueryShape::kChain;
  wc.num_query_subgoals = 4;
  wc.num_predicates = 2;
  wc.num_views = 8;
  wc.seed = 11;
  return GenerateWorkload(wc);
}

ViewPlanner::Options MatrixOptions() {
  ViewPlanner::Options options;
  options.fallback_work_budget = 50'000;
  return options;
}

// Every governed call plans under this request: a governor is present (so
// armed faults fire) but its work limit never trips on its own.
PlanRequestOptions MatrixRequest(CostModel model = CostModel::kM2) {
  return {.model = model, .work_limit = uint64_t{1} << 40};
}

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// Phase 1: recording runs discover the site inventory. Two passes — a clean
// plan, and one with set-cover killed so the MiniCon fallback sites are
// crossed too.
std::vector<std::string> DiscoverSites(const Workload& w,
                                       const Database& instances) {
  auto& registry = FaultRegistry::Global();
  registry.Reset();
  registry.EnableRecording(true);
  {
    ViewPlanner planner(w.views, instances, MatrixOptions());
    (void)planner.Plan(w.query, MatrixRequest());
  }
  registry.Arm("corecover.set_cover", FaultKind::kStageAbort, 1);
  {
    ViewPlanner planner(w.views, instances, MatrixOptions());
    (void)planner.Plan(w.query, MatrixRequest());
  }
  std::vector<std::string> sites = registry.SeenSites();
  registry.Reset();
  return sites;
}

TEST_F(FaultMatrixTest, DiscoveryFindsTheGovernedPipeline) {
  const Workload w = MatrixWorkload();
  const Database instances = MaterializeViews(w.views, Database{});
  const std::vector<std::string> sites = DiscoverSites(w, instances);
  ASSERT_FALSE(sites.empty());
  auto has = [&](const std::string& s) {
    return std::find(sites.begin(), sites.end(), s) != sites.end();
  };
  // The load-bearing stages must all be governed.
  EXPECT_TRUE(has("corecover.minimize"));
  EXPECT_TRUE(has("corecover.view_tuples"));
  EXPECT_TRUE(has("corecover.tuple_cores"));
  EXPECT_TRUE(has("corecover.set_cover"));
  // cq.homomorphism is a hot-loop site amortized over a 64-node stride, so
  // this small workload never crosses it; HotLoopSiteFiresOnLargeSearch
  // covers it on a search big enough to reach the stride.
  EXPECT_TRUE(has("cost.m2"));
  EXPECT_TRUE(has("minicon.grow")) << "fallback pass crossed no MiniCon site";
}

// Phase 2: the full matrix.
TEST_F(FaultMatrixTest, EverySiteSurvivesEveryFault) {
  const Workload w = MatrixWorkload();
  const Database instances = MaterializeViews(w.views, Database{});

  // Ungoverned ground truth for the no-poisoning check.
  ViewPlanner baseline_planner(w.views, instances);
  const auto baseline = baseline_planner.Plan(w.query, CostModel::kM2);
  ASSERT_TRUE(baseline.ok());
  const std::string baseline_logical = baseline.choice->logical.ToString();

  const std::vector<std::string> sites = DiscoverSites(w, instances);
  ASSERT_FALSE(sites.empty());
  auto& registry = FaultRegistry::Global();

  for (const std::string& site : sites) {
    for (const FaultKind kind :
         {FaultKind::kBudgetExhausted, FaultKind::kAllocFailure,
          FaultKind::kStageAbort}) {
      for (const uint64_t nth : {uint64_t{1}, uint64_t{3}}) {
        SCOPED_TRACE(site + " x " + FaultKindName(kind) + " x nth=" +
                     std::to_string(nth));
        registry.Reset();
        registry.Arm(site, kind, nth);
        ViewPlanner planner(w.views, instances, MatrixOptions());
        const auto result = planner.Plan(w.query, MatrixRequest());
        // Some sites are crossed fewer than `nth` times on this workload;
        // then the fault never fires and the run is an ordinary success.
        const bool fired = registry.CrossingCount(site) >= nth;
        registry.Reset();

        // Invariant 2: status correctness.
        ASSERT_TRUE(result.status == PlanStatus::kOk ||
                    result.status == PlanStatus::kBudgetExhausted)
            << PlanStatusName(result.status);
        if (result.ok()) {
          ASSERT_TRUE(result.choice.has_value());
          EXPECT_TRUE(VerifyCertificate(result.choice->certificate, w.views));
          EXPECT_EQ(result.degraded, fired);
        } else {
          EXPECT_TRUE(fired);
          EXPECT_NE(result.exhaustion.kind, BudgetKind::kNone);
          EXPECT_FALSE(result.exhaustion.site.empty());
          EXPECT_FALSE(result.error.empty());
          // A budget-exhausted logical outcome must never have been cached.
          EXPECT_EQ(planner.cache_size(), 0u);
        }

        // Invariant 3: no cache poisoning — the same planner, disarmed,
        // reproduces the ungoverned answer exactly.
        const auto recovered = planner.Plan(w.query, MatrixRequest());
        ASSERT_EQ(recovered.status, PlanStatus::kOk)
            << PlanStatusName(recovered.status) << " " << recovered.error;
        EXPECT_FALSE(recovered.degraded);
        EXPECT_EQ(recovered.choice->logical.ToString(), baseline_logical);
        EXPECT_EQ(recovered.choice->cost, baseline.choice->cost);
        EXPECT_TRUE(
            VerifyCertificate(recovered.choice->certificate, w.views));
      }
    }
  }
}

// The homomorphism hot loop only consults the registry every 64 search
// nodes, so it needs searches big enough to reach the stride. A symmetric
// star query (every subgoal the same predicate) forces real backtracking in
// the minimization and containment searches — measured 18 crossings of
// cq.homomorphism on this exact workload.
TEST_F(FaultMatrixTest, HotLoopSiteFiresOnLargeSearch) {
  WorkloadConfig wc;
  wc.shape = QueryShape::kStar;
  wc.num_query_subgoals = 10;
  wc.num_predicates = 1;
  wc.num_views = 8;
  wc.seed = 5;
  const Workload w = GenerateWorkload(wc);

  auto& registry = FaultRegistry::Global();
  registry.Arm("cq.homomorphism", FaultKind::kBudgetExhausted, 1);
  ViewPlanner::Options options = MatrixOptions();
  options.fallback_work_budget = 5'000;  // keep the recovery ladder cheap
  ViewPlanner planner(w.views, MaterializeViews(w.views, Database{}),
                      options);
  const auto result = planner.Plan(w.query, MatrixRequest());
  EXPECT_GE(registry.CrossingCount("cq.homomorphism"), 1u);
  registry.Reset();
  ASSERT_TRUE(result.status == PlanStatus::kOk ||
              result.status == PlanStatus::kBudgetExhausted)
      << PlanStatusName(result.status);
  EXPECT_NE(result.exhaustion.kind, BudgetKind::kNone);
  if (result.ok()) {
    EXPECT_TRUE(result.degraded);
    EXPECT_TRUE(VerifyCertificate(result.choice->certificate, w.views));
  } else {
    EXPECT_EQ(planner.cache_size(), 0u);
  }
}

// The M3 cost path has its own governed site; give it one matrix row so the
// model dimension is covered too.
TEST_F(FaultMatrixTest, M3CostSiteIsGoverned) {
  const Workload w = MatrixWorkload();
  const Database instances = MaterializeViews(w.views, Database{});
  auto& registry = FaultRegistry::Global();
  registry.Arm("cost.m3", FaultKind::kBudgetExhausted, 1);
  ViewPlanner planner(w.views, instances, MatrixOptions());
  const auto result = planner.Plan(w.query, MatrixRequest(CostModel::kM3));
  const bool fired = registry.CrossingCount("cost.m3") >= 1;
  registry.Reset();
  EXPECT_TRUE(fired);
  ASSERT_TRUE(result.status == PlanStatus::kOk ||
              result.status == PlanStatus::kBudgetExhausted);
  if (result.ok()) {
    EXPECT_TRUE(result.degraded);
    EXPECT_TRUE(VerifyCertificate(result.choice->certificate, w.views));
  }
}

}  // namespace
}  // namespace vbr
