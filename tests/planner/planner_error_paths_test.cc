// Regression tests for the planner's failure paths: queries beyond the
// 64-subgoal fragment, and rewritings too wide for the M2 join-order
// search, must flow through PlanResult as
// kUnsupportedQueryTooLarge without corrupting the cache, and Explain must
// report failed plans instead of crashing.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "cost/m2_optimizer.h"
#include "cq/parser.h"
#include "engine/io.h"
#include "engine/materialize.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"

namespace vbr {
namespace {

// A chain of `n` DISTINCT binary predicates: its core is itself, so the
// minimized query keeps all n subgoals and n > 64 trips the fragment check.
ConjunctiveQuery WideQuery(size_t n) {
  std::string text = "q(X0,X" + std::to_string(n) + ") :- ";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) text += ", ";
    text += "p" + std::to_string(i) + "(X" + std::to_string(i) + ",X" +
            std::to_string(i + 1) + ")";
  }
  text += ".";
  return MustParseQuery(text);
}

ViewSet SmallViews() {
  const auto program = MustParseProgram(
      "q(X,Y) :- p0(X,Y). "
      "v0(X,Y) :- p0(X,Y). "
      "v1(X,Y) :- p1(X,Y).");
  return ViewSet(program.begin() + 1, program.end());
}

TEST(PlannerErrorPathsTest, TooLargeQueryReportsUnsupportedStatus) {
  const ViewPlanner planner(SmallViews(), Database());
  const auto result = planner.Plan(WideQuery(65), CostModel::kM1);
  EXPECT_EQ(result.status, PlanStatus::kUnsupportedQueryTooLarge);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.choice.has_value());
  EXPECT_FALSE(result.error.empty());
}

TEST(PlannerErrorPathsTest, TooLargeQueryDoesNotPoisonTheCache) {
  const ViewPlanner planner(SmallViews(), Database());
  const ConjunctiveQuery wide = WideQuery(65);

  // The negative outcome is itself cacheable: the second identical request
  // must be a hit with the SAME status, not a corrupted entry.
  const auto first = planner.Plan(wide, CostModel::kM1);
  const auto second = planner.Plan(wide, CostModel::kM1);
  EXPECT_EQ(first.status, PlanStatus::kUnsupportedQueryTooLarge);
  EXPECT_EQ(second.status, PlanStatus::kUnsupportedQueryTooLarge);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_FALSE(second.choice.has_value());

  // A well-formed query planned afterwards is unaffected.
  const auto ok = planner.Plan(MustParseQuery("q(X,Y) :- p0(X,Y)."),
                               CostModel::kM1);
  EXPECT_EQ(ok.status, PlanStatus::kOk);
  ASSERT_TRUE(ok.choice.has_value());
  EXPECT_EQ(planner.cache_counters().hits, 1u);
  EXPECT_EQ(planner.cache_counters().misses, 2u);
}

TEST(PlannerErrorPathsTest, ExplainReportsTooLargeWithoutCrashing) {
  const ViewPlanner planner(SmallViews(), Database());
  const auto explanation =
      planner.Explain(WideQuery(65), {.model = CostModel::kM2});
  EXPECT_EQ(explanation.status, PlanStatus::kUnsupportedQueryTooLarge);
  EXPECT_FALSE(explanation.ok());
  EXPECT_FALSE(explanation.error.empty());
  EXPECT_TRUE(explanation.breakdown.empty());

  const std::string text = explanation.ToText();
  EXPECT_NE(text.find("unsupported"), std::string::npos) << text;
  std::string error;
  const auto parsed = ParseJson(explanation.ToJson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Get("status")->string_value(),
            "unsupported query (too large)");
  EXPECT_TRUE(parsed->Get("plan")->is_null());
}

TEST(PlannerErrorPathsTest, ExplainReportsNoRewriting) {
  const ViewPlanner planner(SmallViews(), Database());
  const auto explanation =
      planner.Explain(MustParseQuery("q(X,Y) :- p2(X,Y)."),
                      {.model = CostModel::kM2});
  EXPECT_EQ(explanation.status, PlanStatus::kNoRewriting);
  EXPECT_TRUE(explanation.candidates.empty());
  std::string error;
  const auto parsed = ParseJson(explanation.ToJson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Get("status")->string_value(), "no equivalent rewriting");
}

// The chain q(X0..Xn) :- e(X0,X1), ..., e(Xn-1,Xn) over v(A,B) :- e(A,B):
// its one rewriting is the n-subgoal v-chain.
ConjunctiveQuery EChain(size_t n) {
  std::string head = "q(X0";
  std::string body;
  for (size_t i = 0; i < n; ++i) {
    head += ",X" + std::to_string(i + 1);
    body += (i > 0 ? ", " : "") + std::string("e(X") + std::to_string(i) +
            ",X" + std::to_string(i + 1) + ")";
  }
  return MustParseQuery(head + ") :- " + body + ".");
}

ViewPlanner EChainPlanner() {
  const ViewSet views = MustParseProgram("v(A,B) :- e(A,B).");
  const auto base = ParseDatabase("e(1,2). e(2,3). e(3,1).");
  return ViewPlanner(views, MaterializeViews(views, *base));
}

TEST(PlannerErrorPathsTest, RewritingTooWideToCostReportsUnsupportedStatus) {
  // 22 subgoals: within CoreCover's 64-subgoal fragment, but past the M2
  // join-order search (kMaxM2Subgoals), which M3 also falls back to at
  // this width. The width comes from the request, so it must end in a
  // status, never in the DP's size check.
  const ViewPlanner planner = EChainPlanner();
  const ConjunctiveQuery wide = EChain(22);
  for (const CostModel model : {CostModel::kM2, CostModel::kM3}) {
    const auto first = planner.Plan(wide, model);
    EXPECT_EQ(first.status, PlanStatus::kUnsupportedQueryTooLarge);
    EXPECT_FALSE(first.choice.has_value());
    EXPECT_NE(first.error.find(std::to_string(kMaxM2Subgoals) + " subgoals"),
              std::string::npos)
        << first.error;
    // The cached rewritings hit the same limit when re-costed.
    const auto second = planner.Plan(wide, model);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(second.status, PlanStatus::kUnsupportedQueryTooLarge);
    EXPECT_EQ(second.error, first.error);
  }

  // M1 needs no join-order search: it plans, and Explain leaves out the
  // models the rewriting is too wide for instead of aborting.
  const auto m1 = planner.Plan(wide, CostModel::kM1);
  ASSERT_EQ(m1.status, PlanStatus::kOk);
  EXPECT_EQ(m1.choice->cost, 22u);
  const auto explanation = planner.Explain(wide, {.model = CostModel::kM1});
  ASSERT_TRUE(explanation.ok());
  ASSERT_EQ(explanation.breakdown.size(), 1u);
  EXPECT_EQ(explanation.breakdown[0].model, CostModel::kM1);
  EXPECT_EQ(planner.Explain(wide, {.model = CostModel::kM2}).status,
            PlanStatus::kUnsupportedQueryTooLarge);

  // A short chain still plans under M2.
  const auto narrow = planner.Plan(EChain(3), CostModel::kM2);
  ASSERT_EQ(narrow.status, PlanStatus::kOk);
  EXPECT_EQ(narrow.choice->logical.num_subgoals(), 3u);
}

}  // namespace
}  // namespace vbr
