// Tests for the per-snapshot costing memo: memoized and factored |IR| sizes
// agree with plain JoinSize, partial measurements are never stored, plan
// costs agree with ExecutePlan, and concurrent callers share one session.
// The concurrent suite also runs under ThreadSanitizer
// (scripts/check_tsan.sh).

#include "cost/costing_session.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/metrics.h"
#include "cost/m2_optimizer.h"
#include "cost/m3_optimizer.h"
#include "cq/parser.h"
#include "cq/rename.h"
#include "engine/evaluator.h"
#include "engine/materialize.h"
#include "rewrite/core_cover.h"
#include "workload/data_gen.h"
#include "workload/generator.h"

namespace vbr {
namespace {

std::vector<Atom> SubgoalsIn(const ConjunctiveQuery& q, uint32_t mask) {
  std::vector<Atom> atoms;
  for (size_t i = 0; i < q.num_subgoals(); ++i) {
    if (mask & (uint32_t{1} << i)) atoms.push_back(q.subgoal(i));
  }
  return atoms;
}

// Every subset of `rewriting`: the sizer without a session, a cold session
// and the same session warm all equal JoinSize.
void ExpectEverySubsetExact(const ConjunctiveQuery& rewriting,
                            const Database& db, CostingSession* session) {
  const uint32_t full = (uint32_t{1} << rewriting.num_subgoals()) - 1;
  const IrSizer plain(rewriting, db);
  for (int pass = 0; pass < 2; ++pass) {
    const CostingScope scope(session, db);
    const IrSizer memoized(rewriting, db);
    for (uint32_t mask = 1; mask <= full; ++mask) {
      const size_t expected = JoinSize(SubgoalsIn(rewriting, mask), db);
      ASSERT_EQ(memoized(mask), expected)
          << rewriting.ToString() << " mask " << mask << " pass " << pass;
      ASSERT_EQ(plain(mask), expected) << rewriting.ToString();
    }
  }
}

struct Catalog {
  Workload workload;
  Database view_db;
};

Catalog MakeCatalog(QueryShape shape, uint64_t seed) {
  WorkloadConfig wc;
  wc.shape = shape;
  wc.num_query_subgoals = shape == QueryShape::kStar ? 6 : 5;
  wc.num_predicates = 4;
  wc.num_views = 24;
  wc.seed = seed;
  Catalog c;
  c.workload = GenerateWorkload(wc);
  DataConfig dc;
  dc.rows_per_relation = 20;
  dc.domain_size = 6;
  dc.seed = seed * 13 + 1;
  c.view_db = MaterializeViews(
      c.workload.views,
      GenerateBaseData(c.workload.query, c.workload.views, dc));
  return c;
}

TEST(CostingSessionTest, MemoizedSizesMatchJoinSizeOnStarAndChain) {
  size_t rewritings_checked = 0;
  for (const QueryShape shape : {QueryShape::kStar, QueryShape::kChain}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const Catalog c = MakeCatalog(shape, seed);
      CostingSession session;
      const CoreCoverResult cc =
          CoreCoverStar(c.workload.query, c.workload.views);
      for (const ConjunctiveQuery& p : cc.rewritings) {
        if (p.num_subgoals() > 10) continue;
        ExpectEverySubsetExact(p, c.view_db, &session);
        ++rewritings_checked;
      }
    }
  }
  EXPECT_GT(rewritings_checked, 0u);
}

TEST(CostingSessionTest, ConstantsRepeatedVariablesAndMissingRelations) {
  Database db;
  for (Value i = 0; i < 6; ++i) {
    db.AddRow("r", {i, i % 3});
    db.AddRow("s", {i % 2, i % 2});
    db.AddRow("s", {i, i + 1});
    db.AddRow("t", {i % 3, 7});
  }
  db.AddRow("u", {5, 6});
  // Constants select, s(Y,Y) equates, `missing` has no relation, u(5,6) is
  // a ground fact, and the r/s/t components are disjoint in some subsets.
  for (const char* text :
       {"q(X,Y) :- r(X,1), s(Y,Y), t(Z,7), u(5,6)",
        "q(X,Y) :- r(X,Z), s(Y,W), t(Z,7), missing(W,V), u(5,6)",
        "q(X) :- r(X,X), s(X,Y), s(Y,X), t(A,B), r(A,B)",
        "q(X) :- u(5,6), u(6,5), r(X,0)"}) {
    CostingSession session;
    ExpectEverySubsetExact(MustParseQuery(text), db, &session);
  }
}

TEST(CostingSessionTest, RenamedVariantsShareEntries) {
  const Catalog c = MakeCatalog(QueryShape::kChain, 2);
  const CoreCoverResult cc = CoreCoverStar(c.workload.query, c.workload.views);
  ASSERT_FALSE(cc.rewritings.empty());
  const ConjunctiveQuery& p = cc.rewritings.front();
  CostingSession session;
  Counter* const hits = MetricsRegistry::Global().GetCounter("cost.memo_hits");
  Counter* const misses =
      MetricsRegistry::Global().GetCounter("cost.memo_misses");
  const CostingScope scope(&session, c.view_db);
  const size_t cold = OptimizeOrderM2(p, c.view_db).cost;
  const uint64_t hits_before = hits->value();
  const uint64_t misses_before = misses->value();
  size_t warm = 0;
  {
    // An inner scope publishes its counts when it closes.
    const CostingScope inner(&session, c.view_db);
    warm = OptimizeOrderM2(RenameVariablesApart(p, "W"), c.view_db).cost;
  }
  EXPECT_EQ(warm, cold);
  EXPECT_GT(hits->value(), hits_before);
  EXPECT_EQ(misses->value(), misses_before);
}

TEST(CostingSessionTest, PartialCountUnderExhaustedGovernorIsNotStored) {
  Database db;
  for (Value i = 0; i < 40; ++i) {
    db.AddRow("a", {i % 4, i});
    db.AddRow("b", {i, i % 5});
  }
  const ConjunctiveQuery p = MustParseQuery("q(X,Y) :- a(X,Z), b(Z,Y)");
  const size_t full = JoinSize(p.body(), db);
  ASSERT_GT(full, 1u);
  CostingSession session;
  {
    // A memory budget of a few rows stops the enumeration part-way.
    ResourceLimits limits;
    limits.memory_limit_bytes = 64;
    ResourceGovernor governor(limits);
    const GovernorScope governed(&governor);
    const CostingScope scope(&session, db);
    const size_t partial = IrSizer(p, db)(0b11);
    EXPECT_TRUE(governor.exhausted());
    EXPECT_LT(partial, full);
  }
  const CostingScope scope(&session, db);
  EXPECT_EQ(IrSizer(p, db)(0b11), full);
  EXPECT_EQ(CostOfOrderM2(p, {0, 1}, db),
            db.Find(p.subgoal(0).predicate())->size() +
                JoinSize({p.subgoal(0)}, db) +
                db.Find(p.subgoal(1).predicate())->size() + full);
}

TEST(CostingSessionTest, PlanCostsMatchExecutePlan) {
  const Catalog c = MakeCatalog(QueryShape::kStar, 1);
  CostingSession session;
  const CoreCoverResult cc = CoreCoverStar(c.workload.query, c.workload.views);
  size_t checked = 0;
  for (const ConjunctiveQuery& p : cc.rewritings) {
    if (p.num_subgoals() > 4) continue;
    const M3OptimizationResult bare =
        OptimizeM3(p, c.workload.query, c.workload.views, c.view_db);
    for (int pass = 0; pass < 2; ++pass) {
      const CostingScope scope(&session, c.view_db);
      const M3OptimizationResult memoized =
          OptimizeM3(p, c.workload.query, c.workload.views, c.view_db);
      EXPECT_EQ(memoized.cost, bare.cost);
      EXPECT_EQ(memoized.plan.ToString(), bare.plan.ToString());
      EXPECT_EQ(MeasuredPlanCost(memoized.plan, c.view_db),
                ExecutePlan(memoized.plan, c.view_db).TotalCost());
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(CostingSessionTest, OtherDatabasesBypassTheScopedSession) {
  Database small;
  small.AddRow("v", {1, 2});
  Database large = small;
  large.AddRow("v", {2, 3});
  const ConjunctiveQuery p = MustParseQuery("q(X) :- v(X,Y)");
  CostingSession session;
  const CostingScope scope(&session, small);
  EXPECT_EQ(IrSizer(p, small)(1), 1u);
  EXPECT_EQ(IrSizer(p, large)(1), 2u);
}

TEST(CostingSessionTest, EverySlotOfAShardIsReachable) {
  // Fingerprints always have bit 0 of lo set. A full shard's worth of such
  // keys, with consecutive lo, fills every set's two ways and loses none.
  CostingSession session;
  const size_t n = CostingSession::kSlotsPerShard;
  for (uint64_t i = 0; i < n; ++i) {
    session.Store({CostingSession::kShards * 7, 2 * i + 1}, i);
  }
  size_t found = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const std::optional<uint64_t> v =
        session.Lookup({CostingSession::kShards * 7, 2 * i + 1});
    if (v.has_value() && *v == i) ++found;
  }
  EXPECT_EQ(found, n);
}

TEST(CostingSessionTest, FactoredSizeSaturates) {
  Database db;
  for (Value i = 0; i < 1000; ++i) db.AddRow("v", {i});
  // Seven disjoint copies: 1000^7 = 10^21 rows, past SIZE_MAX.
  const ConjunctiveQuery p = MustParseQuery(
      "q(A) :- v(A), v(B), v(C), v(D), v(E), v(F), v(G)");
  EXPECT_EQ(IrSizer(p, db)(0b1111111), SIZE_MAX);
  EXPECT_EQ(IrSizer(p, db)(0b11), 1'000'000u);
  // The DP's sum over a saturated |IR| saturates too.
  EXPECT_EQ(OptimizeOrderM2(p, db).cost, SIZE_MAX);
  EXPECT_EQ(CostOfOrderM2(p, {0, 1, 2, 3, 4, 5, 6}, db), SIZE_MAX);
}

TEST(CostingSessionConcurrencyTest, FourThreadsShareOneSession) {
  const Catalog c = MakeCatalog(QueryShape::kStar, 2);
  const CoreCoverResult cc = CoreCoverStar(c.workload.query, c.workload.views);
  std::vector<ConjunctiveQuery> rewritings;
  std::vector<size_t> expected;
  for (const ConjunctiveQuery& p : cc.rewritings) {
    if (p.num_subgoals() > 8) continue;
    rewritings.push_back(p);
    expected.push_back(OptimizeOrderM2(p, c.view_db).cost);
  }
  ASSERT_FALSE(rewritings.empty());
  CostingSession session;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const CostingScope scope(&session, c.view_db);
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < rewritings.size(); ++i) {
          const size_t k = (i + t) % rewritings.size();
          const ConjunctiveQuery renamed =
              RenameVariablesApart(rewritings[k], "T");
          if (OptimizeOrderM2(renamed, c.view_db).cost != expected[k]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace vbr
