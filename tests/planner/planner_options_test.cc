#include <gtest/gtest.h>

#include "cost/m3_optimizer.h"
#include "cq/parser.h"
#include "engine/evaluator.h"
#include "engine/materialize.h"
#include "planner/planner.h"

namespace vbr {
namespace {

// A query wide enough that the M3 cost-based search must fall back to the
// M2-order + supplementary-drops path (kMaxM3Subgoals below its width).
struct WideFixture {
  ConjunctiveQuery query = MustParseQuery(
      "q(X1,X7) :- p1(X1,X2), p2(X2,X3), p3(X3,X4), p4(X4,X5), p5(X5,X6), "
      "p6(X6,X7), p7(X7,X8)");
  ViewSet views = MustParseProgram(R"(
    w1(A,B) :- p1(A,B)
    w2(A,B) :- p2(A,B)
    w3(A,B) :- p3(A,B)
    w4(A,B) :- p4(A,B)
    w5(A,B) :- p5(A,B)
    w6(A,B) :- p6(A,B)
    w7(A,B) :- p7(A,B)
  )");
  Database base;

  WideFixture() {
    for (int p = 1; p <= 7; ++p) {
      for (Value i = 0; i < 10; ++i) {
        base.AddRow("p" + std::to_string(p), {i, (i + 1) % 10});
      }
    }
  }
};

TEST(PlannerOptionsTest, M3FallsBackOnWidePlans) {
  WideFixture f;
  static_assert(kMaxM3Subgoals < 7, "the plan must be too wide for M3");
  ViewPlanner planner(f.views, MaterializeViews(f.views, f.base));
  auto result = planner.Plan(f.query, CostModel::kM3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.choice->logical.num_subgoals(), 7u);
  EXPECT_TRUE(planner.Execute(*result.choice).EqualsAsSet(
      EvaluateQuery(f.query, f.base)));
  // The fallback still drops attributes (SR rule).
  bool any_drop = false;
  for (const auto& step : result.choice->physical.drop_after) {
    any_drop |= !step.empty();
  }
  EXPECT_TRUE(any_drop);
}

TEST(PlannerOptionsTest, MaxRewritingsLimitsSearch) {
  const auto query = MustParseQuery("q(X) :- r(X)");
  const ViewSet views = MustParseProgram(R"(
    u1(X) :- r(X)
    u2(X) :- r(X)
  )");
  ViewPlanner::Options options;
  options.core_cover.max_rewritings = 1;
  Database view_db;
  view_db.AddRow("u1", {1});
  view_db.AddRow("u2", {1});
  ViewPlanner planner(views, view_db, options);
  auto result = planner.Plan(query, CostModel::kM2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.choice->logical.num_subgoals(), 1u);
}

TEST(PlannerOptionsDeathTest, UnsafeViewAborts) {
  const ViewSet views = MustParseProgram("v(X,Y) :- r(X,X)");
  EXPECT_DEATH(ViewPlanner(views, Database{}), "unsafe view");
}

}  // namespace
}  // namespace vbr
