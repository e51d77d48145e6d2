// The work-budget determinism contract (DESIGN.md "Resource governance"):
// under a PURE work budget — no deadline, no memory limit — a governed
// CoreCover run is a deterministic function of (query, views, options,
// work_limit). Abort decisions latch only at serial checkpoints or via
// per-branch node caps that are identical for every branch, so the full
// result — status, exhaustion site, rewritings, stats counters, and even
// work_used itself — must be byte-identical across repeated runs. Deadline
// and memory budgets are explicitly outside this contract (they depend on
// the clock and the allocator).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.h"
#include "engine/materialize.h"
#include "planner/planner.h"
#include "rewrite/core_cover.h"
#include "workload/generator.h"

namespace vbr {
namespace {

Workload DeterminismWorkload() {
  // The symmetric star forces real search in every stage (measured: tens of
  // thousands of governed work units), so mid-pipeline budgets genuinely
  // bisect the run.
  WorkloadConfig wc;
  wc.shape = QueryShape::kStar;
  wc.num_query_subgoals = 10;
  wc.num_predicates = 1;
  wc.num_views = 8;
  wc.seed = 5;
  return GenerateWorkload(wc);
}

// Canonical byte serialization of everything the contract covers.
std::string Fingerprint(const CoreCoverResult& r) {
  std::string s;
  s += "status=" + std::to_string(static_cast<int>(r.status)) + "\n";
  s += "exhaustion_kind=" + std::string(BudgetKindName(r.exhaustion.kind)) +
       "\n";
  s += "exhaustion_site=" + r.exhaustion.site + "\n";
  s += "has_rewriting=" + std::to_string(r.has_rewriting) + "\n";
  s += "truncated=" + std::to_string(r.truncated) + "\n";
  s += "minimized=" + r.minimized_query.ToString() + "\n";
  for (const auto& rw : r.rewritings) s += "rewriting=" + rw.ToString() + "\n";
  for (const auto& vt : r.view_tuples) {
    s += "tuple=" + vt.tuple.atom.ToString() + " class=" +
         std::to_string(vt.class_id) + " rep=" +
         std::to_string(vt.is_class_representative) + " mask=" +
         std::to_string(vt.core.covered_mask) + "\n";
  }
  s += "num_view_tuples=" + std::to_string(r.stats.num_view_tuples) + "\n";
  s += "num_tuple_classes=" + std::to_string(r.stats.num_tuple_classes) + "\n";
  s += "nonempty_cores=" + std::to_string(r.stats.num_nonempty_cores) + "\n";
  s += "min_cover=" + std::to_string(r.stats.minimum_cover_size) + "\n";
  s += "view_tuple_tasks=" + std::to_string(r.stats.view_tuple_tasks) + "\n";
  s += "tuple_core_tasks=" + std::to_string(r.stats.tuple_core_tasks) + "\n";
  s += "work_used=" + std::to_string(r.stats.work_used) + "\n";
  s += "hit_cap=" + std::to_string(r.stats.hit_rewriting_cap) + "\n";
  return s;
}

std::string GovernedRun(const Workload& w, uint64_t work_limit) {
  ResourceLimits limits;
  limits.work_limit = work_limit;
  ResourceGovernor governor(limits);
  GovernorScope scope(&governor);
  return Fingerprint(CoreCoverStar(w.query, w.views));
}

TEST(BudgetDeterminismTest, WorkBudgetOutcomeIsByteIdentical) {
  const Workload w = DeterminismWorkload();

  // Measure the total governed work of a complete run, then pick budgets
  // that kill the pipeline at several depths.
  ResourceLimits unlimited_work;
  unlimited_work.work_limit = uint64_t{1} << 40;
  uint64_t total_work = 0;
  {
    ResourceGovernor governor(unlimited_work);
    GovernorScope scope(&governor);
    const auto full = CoreCoverStar(w.query, w.views);
    ASSERT_EQ(full.status, CoreCoverStatus::kOk);
    total_work = full.stats.work_used;
  }
  ASSERT_GT(total_work, 100u) << "workload too small to bisect";

  const uint64_t budgets[] = {total_work / 10, total_work / 3,
                              total_work / 2, total_work, total_work * 2};
  for (const uint64_t budget : budgets) {
    const std::string reference = GovernedRun(w, budget);
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(GovernedRun(w, budget), reference)
          << "budget=" << budget << " repeat=" << repeat;
    }
  }
}

// The same contract one layer up: a planner with a pure work budget returns
// the same status, exhaustion site, chosen plan, and work_used every time.
TEST(BudgetDeterminismTest, GovernedPlannerIsDeterministic) {
  const Workload w = DeterminismWorkload();
  const Database instances = MaterializeViews(w.views, Database{});

  auto run = [&](uint64_t work_limit) {
    ViewPlanner::Options options;
    options.fallback_work_budget = 10'000;
    ViewPlanner planner(w.views, instances, options);
    const auto r = planner.Plan(
        w.query, {.model = CostModel::kM2, .work_limit = work_limit});
    std::string s = PlanStatusName(r.status);
    s += "|" + std::string(BudgetKindName(r.exhaustion.kind));
    s += "|" + r.exhaustion.site;
    s += "|" + std::to_string(r.degraded);
    s += "|" + std::to_string(r.stats.work_used);
    if (r.choice.has_value()) {
      s += "|" + r.choice->logical.ToString();
      s += "|" + std::to_string(r.choice->cost);
    }
    return s;
  };

  for (const uint64_t work_limit :
       {uint64_t{500}, uint64_t{5'000}, uint64_t{1} << 40}) {
    const std::string reference = run(work_limit);
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(run(work_limit), reference) << "work_limit=" << work_limit;
    }
  }
}

}  // namespace
}  // namespace vbr
