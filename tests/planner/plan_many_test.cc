#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/budget.h"
#include "cq/parser.h"
#include "cq/rename.h"
#include "cq/substitution.h"
#include "engine/materialize.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "rewrite/certificate.h"
#include "tests/rewrite/fixtures.h"
#include "workload/data_gen.h"
#include "workload/generator.h"

namespace vbr {
namespace {

using testing_fixtures::CarLocPartQuery;
using testing_fixtures::CarLocPartViews;

// A workload of queries with renamed/reordered duplicates mixed in.
std::vector<ConjunctiveQuery> BatchWithDuplicates(const ViewSet& views,
                                                  uint64_t seed) {
  std::mt19937 rng(seed);
  std::vector<ConjunctiveQuery> base;
  for (uint64_t s = 1; s <= 4; ++s) {
    WorkloadConfig wc;
    wc.shape = (s % 2 == 0) ? QueryShape::kStar : QueryShape::kChain;
    wc.num_query_subgoals = 4;
    wc.num_views = 5;
    wc.seed = seed * 10 + s;
    base.push_back(GenerateWorkload(wc).query);
    (void)views;
  }
  std::vector<ConjunctiveQuery> batch;
  for (int round = 0; round < 3; ++round) {
    for (const ConjunctiveQuery& q : base) {
      Substitution renaming;
      ConjunctiveQuery fresh = RenameVariablesApart(
          q, "b" + std::to_string(round), &renaming);
      std::vector<Atom> body = fresh.body();
      std::shuffle(body.begin(), body.end(), rng);
      batch.emplace_back(fresh.head(), std::move(body));
    }
  }
  std::shuffle(batch.begin(), batch.end(), rng);
  return batch;
}

std::string ResultKey(const ViewPlanner::PlanResult& r) {
  std::string key = std::string(PlanStatusName(r.status)) + "|" +
                    (r.cache_hit ? "hit" : "miss") + "|";
  if (r.choice.has_value()) {
    key += r.choice->ToString() + "|" +
           r.choice->certificate.ToString();
  }
  return key;
}

TEST(PlanManyTest, MatchesSerialPlansAtEveryThreadCount) {
  WorkloadConfig wc;
  wc.num_query_subgoals = 4;
  wc.num_views = 10;
  wc.seed = 3;
  const Workload w = GenerateWorkload(wc);
  DataConfig dc;
  dc.rows_per_relation = 30;
  dc.domain_size = 8;
  dc.seed = 17;
  const Database base = GenerateBaseData(w.query, w.views, dc);
  const Database view_db = MaterializeViews(w.views, base);

  std::vector<ConjunctiveQuery> batch = BatchWithDuplicates(w.views, 5);
  batch.push_back(w.query);
  batch.push_back(CarLocPartQuery());  // no rewriting over these views

  for (CostModel model : {CostModel::kM1, CostModel::kM2}) {
    // Reference: serial Plan() calls on a fresh planner.
    ViewPlanner serial(w.views, view_db);
    std::vector<std::string> expected;
    for (const ConjunctiveQuery& q : batch) {
      expected.push_back(ResultKey(serial.Plan(q, model)));
    }
    // PlanMany fans the batch out over one pool thread per core.
    ViewPlanner planner(w.views, view_db);
    const auto results = planner.PlanMany(batch, model);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(ResultKey(results[i]), expected[i])
          << "i=" << i << " query " << batch[i].ToString();
    }
  }
}

TEST(PlanManyTest, DeduplicatesInFlight) {
  const ViewSet views = CarLocPartViews();
  ViewPlanner planner(views, MaterializeViews(views, Database{}));
  const std::vector<ConjunctiveQuery> batch = {
      CarLocPartQuery(),
      MustParseQuery("q1(T,D) :- part(T,N,D), loc(a,D), car(N,a)"),
      CarLocPartQuery(),
  };
  const auto results = planner.PlanMany(batch, CostModel::kM1);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].cache_hit);
  EXPECT_TRUE(results[1].cache_hit);
  EXPECT_TRUE(results[2].cache_hit);
  // One CoreCover run served all three.
  EXPECT_EQ(planner.cache_counters().misses, 1u);
  EXPECT_EQ(planner.cache_counters().hits, 2u);
  // Each result speaks the caller's variable names.
  EXPECT_EQ(results[1].choice->logical.ToString(), "q1(T,D) :- v4(N,a,D,T)");
  EXPECT_EQ(results[0].choice->logical.ToString(), "q1(S,C) :- v4(M,a,C,S)");
}

// Regression: the in-flight dedup must hand EVERY waiter an independent,
// fully populated PlanResult — its own cache_hit/degraded/exhaustion flags
// and its own certified choice — never a half-copied or shared one.
TEST(PlanManyTest, DedupPropagatesFlagsToEveryWaiter) {
  const ViewSet views = CarLocPartViews();
  ViewPlanner planner(views, MaterializeViews(views, Database{}));
  std::vector<ConjunctiveQuery> batch;
  batch.push_back(CarLocPartQuery());
  for (int i = 0; i < 3; ++i) {
    Substitution renaming;
    batch.push_back(RenameVariablesApart(CarLocPartQuery(),
                                         "w" + std::to_string(i), &renaming));
  }
  const auto results = planner.PlanMany(batch, CostModel::kM1);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_FALSE(results[0].cache_hit);
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "waiter " << i;
    EXPECT_TRUE(results[i].cache_hit) << "waiter " << i;
    EXPECT_FALSE(results[i].degraded) << "waiter " << i;
    EXPECT_EQ(results[i].exhaustion.kind, BudgetKind::kNone) << "waiter " << i;
    // The waiter's stats describe the ONE CoreCover run all members share.
    EXPECT_EQ(results[i].stats.num_view_tuples, results[0].stats.num_view_tuples);
    EXPECT_EQ(results[i].stats.minimum_cover_size,
              results[0].stats.minimum_cover_size);
    // Each waiter's certificate is transported into ITS variables and must
    // re-verify on its own.
    ASSERT_TRUE(results[i].choice.has_value());
    EXPECT_TRUE(VerifyCertificate(results[i].choice->certificate, views))
        << "waiter " << i;
  }
}

// Regression: when the representative's run exhausts its budget, nothing is
// cached — each duplicate must re-plan on ITS OWN budget and report its own
// exhaustion, not inherit the leader's (or a blank) one.
TEST(PlanManyTest, DedupExhaustedLeaderDoesNotPoisonWaiters) {
  WorkloadConfig wc;
  wc.num_query_subgoals = 4;
  wc.num_views = 8;
  wc.seed = 9;
  const Workload w = GenerateWorkload(wc);

  ViewPlanner::Options options;
  options.budget.work_limit = 1;  // dies before any rewriting is found
  options.enable_minicon_fallback = false;
  ViewPlanner planner(w.views, Database{}, options);

  std::vector<ConjunctiveQuery> batch;
  batch.push_back(w.query);
  for (int i = 0; i < 2; ++i) {
    Substitution renaming;
    batch.push_back(
        RenameVariablesApart(w.query, "x" + std::to_string(i), &renaming));
  }
  const auto results = planner.PlanMany(batch, CostModel::kM1);
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status, PlanStatus::kBudgetExhausted) << "i=" << i;
    EXPECT_FALSE(results[i].cache_hit) << "i=" << i;
    EXPECT_EQ(results[i].exhaustion.kind, BudgetKind::kWork) << "i=" << i;
    EXPECT_FALSE(results[i].exhaustion.site.empty()) << "i=" << i;
    EXPECT_FALSE(results[i].error.empty()) << "i=" << i;
  }
  // Nothing was cached for the exhausted fingerprint.
  EXPECT_EQ(planner.cache_size(), 0u);
}

TEST(PlanManyTest, ReplaceViewsInvalidatesCachedPlans) {
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

TEST(PlanManyTest, TooLargeQueriesReportUnsupported) {
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
TEST(PlanManyTest, PlanDistinguishesSuccessFromNoRewriting) {
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
