// Metamorphic plan-cache tests, under each cost model: a query and any
// variable-renamed, subgoal-reordered variant of it are the SAME query, so
//   1. the variants must hit the fingerprint cache,
//   2. a hit-path plan must compute exactly the answer the cold path
//      computes, evaluated over the query's canonical database (whose
//      frozen body makes the query's own answer non-empty, so the
//      comparison is never vacuous), and
//   3. planning the very same query twice — a miss, then a hit — yields
//      the same plan and certificate, byte for byte.

#include <algorithm>
#include <ostream>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "cq/rename.h"
#include "engine/materialize.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "rewrite/canonical_db.h"
#include "workload/generator.h"

namespace vbr {
namespace {

constexpr int kVariantRounds = 4;

// Renamed + subgoal-shuffled copy of `q` — semantically the same query.
ConjunctiveQuery Variant(const ConjunctiveQuery& q, std::mt19937& rng,
                         int round) {
  ConjunctiveQuery fresh =
      RenameVariablesApart(q, "mv" + std::to_string(round));
  std::vector<Atom> body = fresh.body();
  std::shuffle(body.begin(), body.end(), rng);
  return ConjunctiveQuery(fresh.head(), std::move(body));
}

WorkloadConfig ConfigForSeed(uint64_t seed) {
  WorkloadConfig config;
  config.shape = (seed % 2 == 0) ? QueryShape::kStar : QueryShape::kChain;
  config.num_query_subgoals = 4;
  config.num_predicates = 4;
  config.num_views = 8;
  // Every fourth seed has no safety-net views, so negative outcomes
  // (kNoRewriting) go through the metamorphic hit checks too.
  config.ensure_rewriting_exists = (seed % 4 != 0);
  config.seed = seed;
  return config;
}

// The query's canonical database, materialized through the views.
Database ViewInstancesOverCanonicalDb(const Workload& w) {
  const CanonicalDatabase canonical(w.query);
  Database base;
  for (const Atom& fact : canonical.facts()) {
    base.AddFact(fact);
  }
  return MaterializeViews(w.views, base);
}

struct MetamorphicCase {
  CostModel model = CostModel::kM2;
  uint64_t seed = 0;
};

// Test names carry the seed; the instantiation names the model.
void PrintTo(const MetamorphicCase& c, std::ostream* os) { *os << c.seed; }

std::vector<MetamorphicCase> Cases(CostModel model) {
  std::vector<MetamorphicCase> cases;
  for (uint64_t seed = 1; seed <= 12; ++seed) cases.push_back({model, seed});
  return cases;
}

class PlanCacheMetamorphicTest
    : public ::testing::TestWithParam<MetamorphicCase> {};

TEST_P(PlanCacheMetamorphicTest, RenamedReorderedVariantsHitTheCache) {
  const CostModel model = GetParam().model;
  const Workload w = GenerateWorkload(ConfigForSeed(GetParam().seed));
  ViewPlanner planner(w.views, ViewInstancesOverCanonicalDb(w));
  const auto first = planner.Plan(w.query, model);
  EXPECT_FALSE(first.cache_hit);

  std::mt19937 rng(GetParam().seed);
  for (int round = 0; round < kVariantRounds; ++round) {
    const ConjunctiveQuery variant = Variant(w.query, rng, round);
    const auto result = planner.Plan(variant, model);
    EXPECT_TRUE(result.cache_hit)
        << "variant missed the cache: " << variant.ToString();
    EXPECT_EQ(result.status, first.status);
  }
  const PlanCacheCounters counters = planner.cache_counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, static_cast<uint64_t>(kVariantRounds));
}

TEST_P(PlanCacheMetamorphicTest, HitPathPlansEvaluateLikeColdPathPlans) {
  const CostModel model = GetParam().model;
  const Workload w = GenerateWorkload(ConfigForSeed(GetParam().seed));
  const Database instances = ViewInstancesOverCanonicalDb(w);

  ViewPlanner::Options cold_options;
  cold_options.enable_cache = false;
  const ViewPlanner cold(w.views, instances, cold_options);
  const ViewPlanner warm(w.views, instances);
  // Warm the cache with the base query; variants then take the hit path.
  const auto warmup = warm.Plan(w.query, model);

  std::mt19937 rng(GetParam().seed + 1000);
  for (int round = 0; round < kVariantRounds; ++round) {
    const ConjunctiveQuery variant = Variant(w.query, rng, round);
    const auto hit = warm.Plan(variant, model);
    const auto fresh = cold.Plan(variant, model);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_FALSE(fresh.cache_hit);
    ASSERT_EQ(hit.status, fresh.status) << variant.ToString();
    if (!hit.ok()) continue;
    // Same candidate set costed against the same instances: the minimum
    // cost agrees even if tie-breaking picks a different winner.
    EXPECT_EQ(hit.choice->cost, fresh.choice->cost);
    const Relation hit_answer = warm.Execute(*hit.choice);
    const Relation fresh_answer = cold.Execute(*fresh.choice);
    EXPECT_EQ(hit_answer.SortedRows(), fresh_answer.SortedRows())
        << "hit-path and cold-path answers diverge for "
        << variant.ToString();
    // Over the canonical database the query answer contains the frozen
    // head, so the equality above is never a trivial empty == empty.
    EXPECT_FALSE(hit_answer.SortedRows().empty());
  }
  EXPECT_EQ(warmup.status, warm.Plan(w.query, model).status);
}

TEST_P(PlanCacheMetamorphicTest, MissThenHitPlansAreIdentical) {
  const CostModel model = GetParam().model;
  const Workload w = GenerateWorkload(ConfigForSeed(GetParam().seed));
  const ViewPlanner planner(w.views, ViewInstancesOverCanonicalDb(w));
  const auto miss = planner.Plan(w.query, model);
  const auto hit = planner.Plan(w.query, model);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  ASSERT_EQ(hit.status, miss.status);
  if (!hit.ok()) return;
  EXPECT_EQ(hit.choice->logical.ToString(), miss.choice->logical.ToString());
  EXPECT_EQ(hit.choice->physical.ToString(),
            miss.choice->physical.ToString());
  EXPECT_EQ(hit.choice->cost, miss.choice->cost);
  EXPECT_EQ(hit.choice->certificate.ToString(),
            miss.choice->certificate.ToString());
}

// M2 is the planner's default model, so its instantiation is plain Seeds.
INSTANTIATE_TEST_SUITE_P(Seeds, PlanCacheMetamorphicTest,
                         ::testing::ValuesIn(Cases(CostModel::kM2)));
INSTANTIATE_TEST_SUITE_P(M1Seeds, PlanCacheMetamorphicTest,
                         ::testing::ValuesIn(Cases(CostModel::kM1)));
INSTANTIATE_TEST_SUITE_P(M3Seeds, PlanCacheMetamorphicTest,
                         ::testing::ValuesIn(Cases(CostModel::kM3)));

}  // namespace
}  // namespace vbr
