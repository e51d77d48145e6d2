#include "planner/planner.h"

#include <gtest/gtest.h>

#include "cost/m2_optimizer.h"
#include "cq/parser.h"
#include "engine/evaluator.h"
#include "engine/materialize.h"
#include "tests/rewrite/fixtures.h"
#include "workload/data_gen.h"
#include "workload/generator.h"

namespace vbr {
namespace {

using testing_fixtures::CarLocPartQuery;
using testing_fixtures::CarLocPartViews;

Database CarLocPartBase() {
  Database db;
  const Value a = EncodeConstant(Const("a"));
  for (Value m = 0; m < 10; ++m) db.AddRow("car", {m, a});
  for (Value c = 0; c < 5; ++c) db.AddRow("loc", {a, 100 + c});
  for (Value i = 0; i < 200; ++i) {
    db.AddRow("part", {1000 + i, i % 25, 100 + (i % 10)});
  }
  return db;
}

TEST(PlannerTest, M1PicksTheFewestSubgoals) {
  const ViewSet views = CarLocPartViews();
  const Database base = CarLocPartBase();
  ViewPlanner planner(views, MaterializeViews(views, base));
  auto result = planner.Plan(CarLocPartQuery(), CostModel::kM1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.choice->cost, 1u);
  EXPECT_EQ(result.choice->logical.ToString(), "q1(S,C) :- v4(M,a,C,S)");
}

TEST(PlannerTest, AllModelsComputeTheExactAnswer) {
  const ViewSet views = CarLocPartViews();
  const Database base = CarLocPartBase();
  ViewPlanner planner(views, MaterializeViews(views, base));
  const Relation expected = EvaluateQuery(CarLocPartQuery(), base);
  for (CostModel model :
       {CostModel::kM1, CostModel::kM2, CostModel::kM3}) {
    auto result = planner.Plan(CarLocPartQuery(), model);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(planner.Execute(*result.choice).EqualsAsSet(expected));
  }
}

TEST(PlannerTest, CertificateVerifies) {
  const ViewSet views = CarLocPartViews();
  ViewPlanner planner(views, MaterializeViews(views, CarLocPartBase()));
  auto result = planner.Plan(CarLocPartQuery(), CostModel::kM2);
  ASSERT_TRUE(result.ok());
  std::string error;
  EXPECT_TRUE(VerifyCertificate(result.choice->certificate, views, &error))
      << error;
}

TEST(PlannerTest, NoRewritingReportsStatus) {
  const ViewSet views = MustParseProgram("v(M,D) :- car(M,D)");
  ViewPlanner planner(views, Database{});
  const auto result = planner.Plan(CarLocPartQuery(), CostModel::kM2);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status, PlanStatus::kNoRewriting);
  EXPECT_FALSE(result.choice.has_value());
  EXPECT_FALSE(planner.Answer(CarLocPartQuery()).has_value());
}

TEST(PlannerTest, AnswerConvenience) {
  const ViewSet views = CarLocPartViews();
  const Database base = CarLocPartBase();
  ViewPlanner planner(views, MaterializeViews(views, base));
  auto answer = planner.Answer(CarLocPartQuery());
  ASSERT_TRUE(answer.has_value());
  EXPECT_TRUE(answer->EqualsAsSet(EvaluateQuery(CarLocPartQuery(), base)));
}

TEST(PlannerTest, M2NeverCostsMoreThanM1Plan) {
  // The M2 search space includes the GMRs, so its chosen plan's M2 cost is
  // at most the best GMR's M2 cost.
  const ViewSet views = CarLocPartViews();
  const Database base = CarLocPartBase();
  const Database view_db = MaterializeViews(views, base);
  ViewPlanner planner(views, view_db);
  auto m1 = planner.Plan(CarLocPartQuery(), CostModel::kM1);
  auto m2 = planner.Plan(CarLocPartQuery(), CostModel::kM2);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  const auto m1_under_m2 = OptimizeOrderM2(m1.choice->logical, view_db);
  EXPECT_LE(m2.choice->cost, m1_under_m2.cost);
}

TEST(PlannerTest, RandomWorkloadsEndToEnd) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    WorkloadConfig wc;
    wc.shape = (seed % 2 == 0) ? QueryShape::kStar : QueryShape::kChain;
    wc.num_query_subgoals = 5;
    wc.num_views = 12;
    wc.seed = seed;
    const Workload w = GenerateWorkload(wc);
    DataConfig dc;
    dc.rows_per_relation = 50;
    dc.domain_size = 10;
    dc.seed = seed * 101;
    const Database base = GenerateBaseData(w.query, w.views, dc);
    ViewPlanner planner(w.views, MaterializeViews(w.views, base));
    const Relation expected = EvaluateQuery(w.query, base);
    for (CostModel model :
         {CostModel::kM1, CostModel::kM2, CostModel::kM3}) {
      auto result = planner.Plan(w.query, model);
      ASSERT_TRUE(result.ok()) << "seed " << seed;
      EXPECT_TRUE(planner.Execute(*result.choice).EqualsAsSet(expected))
          << "seed " << seed << " model " << static_cast<int>(model) << "\n"
          << result.choice->ToString();
    }
  }
}

TEST(PlannerTest, PlanChoiceToStringIsInformative) {
  const ViewSet views = CarLocPartViews();
  ViewPlanner planner(views, MaterializeViews(views, CarLocPartBase()));
  auto result = planner.Plan(CarLocPartQuery(), CostModel::kM2);
  ASSERT_TRUE(result.ok());
  const std::string text = result.choice->ToString();
  EXPECT_NE(text.find("logical"), std::string::npos);
  EXPECT_NE(text.find("M2"), std::string::npos);
}

TEST(PlannerTest, ReplaceViewsInvalidatesCachedPlans) {
  const auto query = MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)");
  const ViewSet wide = MustParseProgram("v(A,B,C) :- r(A,B), s(B,C)");
  const ViewSet narrow = MustParseProgram(R"(
    vr(A,B) :- r(A,B)
    vs(A,B) :- s(A,B)
  )");
  Database base;
  base.AddRow("r", {1, 2});
  base.AddRow("s", {2, 3});

  ViewPlanner planner(wide, MaterializeViews(wide, base));
  const auto before = planner.Plan(query, CostModel::kM1);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.choice->logical.num_subgoals(), 1u);
  EXPECT_EQ(planner.cache_size(), 1u);

  planner.ReplaceViews(narrow, MaterializeViews(narrow, base));
  EXPECT_EQ(planner.cache_epoch(), 1u);
  EXPECT_EQ(planner.cache_size(), 0u);
  const auto after = planner.Plan(query, CostModel::kM1);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.cache_hit);  // the old entry must not be served
  EXPECT_EQ(after.choice->logical.num_subgoals(), 2u);
  EXPECT_TRUE(planner.Execute(*after.choice).Contains({1, 3}));
}

TEST(PlannerTest, TooLargeQueriesReportUnsupported) {
  // 65 subgoals overflow the 64-bit tuple-core bitmask.
  std::string text = "q(X0)";
  std::string sep = " :- ";
  for (int i = 0; i < 65; ++i) {
    text += sep + "p" + std::to_string(i) + "(X" + std::to_string(i) + ",X" +
            std::to_string(i + 1) + ")";
    sep = ", ";
  }
  const auto query = MustParseQuery(text);
  const ViewSet views = MustParseProgram("v(A,B) :- p0(A,B)");
  ViewPlanner planner(views, Database{});
  const auto result = planner.Plan(query, CostModel::kM2);
  EXPECT_EQ(result.status, PlanStatus::kUnsupportedQueryTooLarge);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.error.empty());
  // The negative outcome is cached, status intact.
  const auto again = planner.Plan(query, CostModel::kM2);
  EXPECT_EQ(again.status, PlanStatus::kUnsupportedQueryTooLarge);
  EXPECT_TRUE(again.cache_hit);
}

// Migrated off the deprecated PlanOrNull shim: Plan's status-bearing result
// covers both the positive outcome and the "no rewriting" distinction the
// shim collapsed into nullopt.
TEST(PlannerTest, PlanDistinguishesSuccessFromNoRewriting) {
  const ViewSet views = CarLocPartViews();
  ViewPlanner planner(views, MaterializeViews(views, Database{}));
  const auto result = planner.Plan(CarLocPartQuery(), CostModel::kM1);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.choice.has_value());
  EXPECT_EQ(result.choice->logical.ToString(), "q1(S,C) :- v4(M,a,C,S)");
  const auto none =
      planner.Plan(MustParseQuery("q(X) :- unknown(X,Y)"), CostModel::kM1);
  EXPECT_EQ(none.status, PlanStatus::kNoRewriting);
  EXPECT_FALSE(none.choice.has_value());
}

}  // namespace
}  // namespace vbr
