#include "cost/filter_advisor.h"

#include <gtest/gtest.h>

#include <string>

#include "common/budget.h"
#include "cost/m2_optimizer.h"
#include "cq/parser.h"
#include "engine/materialize.h"
#include "rewrite/core_cover.h"
#include "rewrite/rewriting.h"

namespace vbr {
namespace {

TEST(FilterAdvisorTest, SelectiveFilterIsAccepted) {
  Database db;
  for (Value i = 0; i < 100; ++i) db.AddRow("vbig", {i});
  db.AddRow("vf", {3});
  db.AddRow("vf", {7});
  const auto p = MustParseQuery("q(X) :- vbig(X)");
  const Atom filter = MustParseQuery("h() :- vf(X)").subgoal(0);
  const auto advice = AdviseFilters(p, {filter}, db);
  ASSERT_EQ(advice.filters_added.size(), 1u);
  EXPECT_LT(advice.improved_cost, advice.base_cost);
  EXPECT_EQ(advice.improved.num_subgoals(), 2u);
}

TEST(FilterAdvisorTest, UselessFilterIsRejected) {
  Database db;
  for (Value i = 0; i < 10; ++i) db.AddRow("vbig", {i});
  for (Value i = 0; i < 10; ++i) db.AddRow("vsame", {i});
  const auto p = MustParseQuery("q(X) :- vbig(X)");
  const Atom filter = MustParseQuery("h() :- vsame(X)").subgoal(0);
  const auto advice = AdviseFilters(p, {filter}, db);
  EXPECT_TRUE(advice.filters_added.empty());
  EXPECT_EQ(advice.improved_cost, advice.base_cost);
  EXPECT_EQ(advice.improved, p);
}

TEST(FilterAdvisorTest, PicksBestOfSeveralFilters) {
  Database db;
  for (Value i = 0; i < 100; ++i) db.AddRow("vbig", {i});
  for (Value i = 0; i < 50; ++i) db.AddRow("fhalf", {i});
  db.AddRow("ftiny", {1});
  const auto p = MustParseQuery("q(X) :- vbig(X)");
  const Atom half = MustParseQuery("h() :- fhalf(X)").subgoal(0);
  const Atom tiny = MustParseQuery("h() :- ftiny(X)").subgoal(0);
  const auto advice = AdviseFilters(p, {half, tiny}, db);
  ASSERT_FALSE(advice.filters_added.empty());
  EXPECT_EQ(advice.filters_added[0].predicate_name(), "ftiny");
}

TEST(FilterAdvisorTest, NeverGrowsARewritingPastTheM2Limit) {
  // A rewriting already at kMaxM2Subgoals: appending a filter would leave
  // the M2 search's range (an abort, not a cost), so none is tried. A
  // one-unit work budget stops each 2^20-subset DP at its first subset;
  // only the size check matters here.
  ResourceGovernor governor(ResourceLimits{.work_limit = 1});
  GovernorScope scope(&governor);
  Database db;
  std::string text = "q(X) :- ";
  for (size_t i = 0; i < kMaxM2Subgoals; ++i) {
    const std::string name = "r" + std::to_string(i);
    db.AddRow(name, {1});
    text += (i > 0 ? ", " : "") + name + "(X)";
  }
  const auto p = MustParseQuery(text);
  const Atom filter = MustParseQuery("h() :- vnone(X)").subgoal(0);
  const auto advice = AdviseFilters(p, {filter}, db);
  EXPECT_TRUE(advice.filters_added.empty());
  EXPECT_EQ(advice.improved, p);
}

TEST(FilterAdvisorTest, CarLocPartP3BeatsP2WhenV3IsSelective) {
  // The paper's Section 1/5 scenario: v3 (stores selling parts for
  // anderson's makes in anderson's cities) is very selective, so adding it
  // to P2 yields a cheaper plan — rewriting P3.
  Database base;
  const Value a = EncodeConstant(Const("a"));
  for (Value m = 0; m < 20; ++m) base.AddRow("car", {m, a});
  for (Value c = 0; c < 20; ++c) base.AddRow("loc", {a, 100 + c});
  // 1000 parts, mostly for makes/cities unrelated to anderson.
  for (Value i = 0; i < 1000; ++i) {
    base.AddRow("part", {2000 + i, 500 + (i % 100), 900 + (i % 50)});
  }
  // A handful of parts that actually match.
  for (Value i = 0; i < 5; ++i) {
    base.AddRow("part", {3000 + i, i, 100 + i});
  }
  const auto q =
      MustParseQuery("q1(S,C) :- car(M,a), loc(a,C), part(S,M,C)");
  const ViewSet views = MustParseProgram(R"(
    v1(M,D,C) :- car(M,D), loc(D,C)
    v2(S,M,C) :- part(S,M,C)
    v3(S) :- car(M,a), loc(a,C), part(S,M,C)
  )");
  const Database view_db = MaterializeViews(views, base);

  const auto result = CoreCover(q, views);
  ASSERT_TRUE(result.has_rewriting);
  ASSERT_EQ(result.filter_candidates.size(), 1u);
  const Atom v3_tuple =
      result.view_tuples[result.filter_candidates[0]].tuple.atom;

  const auto p2 = MustParseQuery("q1(S,C) :- v1(M,a,C), v2(S,M,C)");
  const auto advice = AdviseFilters(p2, {v3_tuple}, view_db);
  ASSERT_EQ(advice.filters_added.size(), 1u);
  EXPECT_LT(advice.improved_cost, advice.base_cost);
  // The improved rewriting is P3 and still equivalent.
  EXPECT_TRUE(IsEquivalentRewriting(advice.improved, q, views));
}

TEST(FilterAdvisorTest, NoCandidatesIsANoOp) {
  Database db;
  db.AddRow("v", {1});
  const auto p = MustParseQuery("q(X) :- v(X)");
  const auto advice = AdviseFilters(p, {}, db);
  EXPECT_TRUE(advice.filters_added.empty());
  EXPECT_EQ(advice.improved, p);
}

}  // namespace
}  // namespace vbr
