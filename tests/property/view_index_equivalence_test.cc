// Candidate-equivalence property suite for the indexed view catalog
// (rewrite/view_index.h), the lockdown for ISSUE 9's sub-linear candidate
// selection. Over ~500 seeded (query, catalog) pairs across the three
// Section 7 shapes it checks, per case:
//
//   1. Index/scan agreement: ViewIndex::Candidates equals LinearCandidates
//      exactly, in both candidate modes — the index is a faster spelling
//      of the same filter, never a different one.
//   2. Candidate soundness: every view that actually appears in any
//      rewriting of a full-scan (filter OFF) CoreCover* run is in the
//      kCoverAll candidate set for the minimized query. Dropping a view
//      the rewriting search would have used is the one unrecoverable bug
//      of a candidate filter; this pins it directly.
//   3. Plan byte-identity: CoreCover* with the filter ON (indexed and
//      linear) produces byte-identical output — same status, same
//      minimized core, same rewritings in the same order — as the filter
//      OFF run. Through the ViewPlanner facade the chosen plan, its
//      certificate, and the "no rewriting" outcomes must match over a
//      serial run of repeated queries, so the cache hits that follow the
//      first plan cannot smuggle in a difference either.
//
// Failures name the shape and seed; replay by running the same config
// through GenerateWorkload.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cq/vbin_codec.h"
#include "engine/database.h"
#include "planner/planner.h"
#include "rewrite/core_cover.h"
#include "rewrite/view_index.h"
#include "workload/generator.h"

namespace vbr {
namespace {

// 5 blocks x 34 seeds x 3 shapes = 510 cases.
constexpr size_t kBlocks = 5;
constexpr size_t kSeedsPerBlock = 34;

const char* ShapeName(QueryShape shape) {
  switch (shape) {
    case QueryShape::kStar:
      return "star";
    case QueryShape::kChain:
      return "chain";
    case QueryShape::kRandom:
      return "random";
  }
  return "?";
}

WorkloadConfig CaseConfig(QueryShape shape, uint64_t seed) {
  WorkloadConfig config;
  config.shape = shape;
  config.num_query_subgoals = 3 + seed % 3;
  // A pool wider than the query keeps a real fraction of each catalog
  // outside the candidate set, so the filter actually filters.
  config.num_predicates = 6;
  config.num_views = 12;
  // A third of the seeds drop the coverage views so the suite also covers
  // agreement on "no rewriting exists".
  config.ensure_rewriting_exists = (seed % 3 != 0);
  // Half the seeds skew predicate popularity (the massive-catalog regime);
  // the rest stay uniform.
  config.predicate_zipf_s = (seed % 2 == 0) ? 0.0 : 1.0;
  config.seed = seed;
  return config;
}

std::string CaseLabel(QueryShape shape, uint64_t seed) {
  return "[shape=" + std::string(ShapeName(shape)) +
         " seed=" + std::to_string(seed) + "] ";
}

// -- 1. index == linear scan, both modes ------------------------------------

::testing::AssertionResult RunAgreementCase(QueryShape shape, uint64_t seed) {
  const Workload w = GenerateWorkload(CaseConfig(shape, seed));
  const ViewIndex index(w.views);
  for (CandidateMode mode :
       {CandidateMode::kCoverAll, CandidateMode::kAnyOverlap}) {
    const std::vector<size_t> linear = LinearCandidates(w.views, w.query, mode);
    const std::vector<size_t> indexed = index.Candidates(w.query, mode);
    if (linear != indexed) {
      auto fmt = [](const std::vector<size_t>& v) {
        std::string s = "{";
        for (size_t i : v) s += std::to_string(i) + ",";
        return s + "}";
      };
      return ::testing::AssertionFailure()
             << CaseLabel(shape, seed) << "index/scan disagreement in mode "
             << (mode == CandidateMode::kCoverAll ? "kCoverAll" : "kAnyOverlap")
             << "\nlinear:  " << fmt(linear) << "\nindexed: " << fmt(indexed)
             << "\nquery: " << w.query.ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

// -- 2. candidates cover every view a full scan uses ------------------------

::testing::AssertionResult RunSoundnessCase(QueryShape shape, uint64_t seed) {
  const Workload w = GenerateWorkload(CaseConfig(shape, seed));
  CoreCoverOptions full_scan;
  full_scan.use_view_index = false;
  const CoreCoverResult cc = CoreCoverStar(w.query, w.views, full_scan);
  if (!cc.ok() || cc.rewritings.empty()) return ::testing::AssertionSuccess();

  // Catalog positions of every view predicate any rewriting mentions.
  std::unordered_map<Symbol, size_t> by_head;
  for (size_t i = 0; i < w.views.size(); ++i) {
    by_head.emplace(w.views[i].head().predicate(), i);
  }
  const ViewIndex index(w.views);
  const std::vector<size_t> candidates =
      index.Candidates(cc.minimized_query, CandidateMode::kCoverAll);
  std::vector<bool> is_candidate(w.views.size(), false);
  for (size_t i : candidates) is_candidate[i] = true;

  for (const ConjunctiveQuery& p : cc.rewritings) {
    for (const Atom& a : p.body()) {
      const auto it = by_head.find(a.predicate());
      if (it == by_head.end()) continue;  // filter atoms etc.
      if (!is_candidate[it->second]) {
        return ::testing::AssertionFailure()
               << CaseLabel(shape, seed) << "view w" << it->second << " ("
               << w.views[it->second].ToString()
               << ") is used by rewriting " << p.ToString()
               << " but missing from the kCoverAll candidate set";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// -- 3. byte-identical plans with the filter on/off -------------------------

std::string CoreCoverKey(const CoreCoverResult& r) {
  std::string key = std::to_string(static_cast<int>(r.status)) + "|" +
                    (r.has_rewriting ? "y" : "n") + "|" +
                    EncodeQueryFile(r.minimized_query) + "|";
  key += EncodeProgramFile(r.rewritings);
  return key;
}

::testing::AssertionResult RunCoreCoverIdentityCase(QueryShape shape,
                                                    uint64_t seed) {
  const Workload w = GenerateWorkload(CaseConfig(shape, seed));

  CoreCoverOptions off;
  off.use_view_index = false;
  const std::string baseline = CoreCoverKey(CoreCoverStar(w.query, w.views, off));

  CoreCoverOptions linear_filter;  // filter on, no prebuilt index
  const std::string linear =
      CoreCoverKey(CoreCoverStar(w.query, w.views, linear_filter));

  const ViewIndex index(w.views);
  CoreCoverOptions indexed_filter;
  indexed_filter.view_index = &index;
  const std::string indexed =
      CoreCoverKey(CoreCoverStar(w.query, w.views, indexed_filter));

  if (linear != baseline) {
    return ::testing::AssertionFailure()
           << CaseLabel(shape, seed)
           << "linear candidate filter changed CoreCover* output\nquery: "
           << w.query.ToString();
  }
  if (indexed != baseline) {
    return ::testing::AssertionFailure()
           << CaseLabel(shape, seed)
           << "indexed candidate filter changed CoreCover* output\nquery: "
           << w.query.ToString();
  }
  return ::testing::AssertionSuccess();
}

std::string PlanKey(const ViewPlanner::PlanResult& r) {
  std::string key = std::string(PlanStatusName(r.status)) + "|" + r.error + "|";
  if (r.choice.has_value()) {
    key += EncodeQueryFile(r.choice->logical) + "|" +
           std::to_string(r.choice->cost) + "|" + r.choice->ToString() + "|" +
           r.choice->certificate.ToString();
  }
  return key;
}

::testing::AssertionResult RunPlannerIdentityCase(QueryShape shape,
                                                  uint64_t seed) {
  const Workload w = GenerateWorkload(CaseConfig(shape, seed));
  // The same query three times, so the cache hits after the first plan
  // also run under both configurations.
  const std::vector<ConjunctiveQuery> batch = {w.query, w.query, w.query};

  std::vector<std::string> baseline;
  {
    ViewPlanner::Options options;
    options.core_cover.use_view_index = false;
    ViewPlanner planner(w.views, Database{}, options);
    for (const ConjunctiveQuery& q : batch) {
      baseline.push_back(PlanKey(planner.Plan(q, CostModel::kM1)));
    }
  }
  ViewPlanner::Options options;
  options.core_cover.use_view_index = true;
  ViewPlanner planner(w.views, Database{}, options);
  for (size_t i = 0; i < batch.size(); ++i) {
    const std::string indexed = PlanKey(planner.Plan(batch[i], CostModel::kM1));
    if (indexed != baseline[i]) {
      return ::testing::AssertionFailure()
             << CaseLabel(shape, seed)
             << "indexed plan diverged at batch index " << i
             << "\nbaseline: " << baseline[i] << "\nindexed:  " << indexed;
    }
  }
  return ::testing::AssertionSuccess();
}

class ViewIndexEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ViewIndexEquivalenceTest, IndexAgreesWithLinearScan) {
  const size_t block = GetParam();
  for (size_t i = 0; i < kSeedsPerBlock; ++i) {
    const uint64_t seed = 1 + block * kSeedsPerBlock + i;
    for (QueryShape shape :
         {QueryShape::kStar, QueryShape::kChain, QueryShape::kRandom}) {
      EXPECT_TRUE(RunAgreementCase(shape, seed));
    }
  }
}

TEST_P(ViewIndexEquivalenceTest, CandidatesCoverEveryUsedView) {
  const size_t block = GetParam();
  for (size_t i = 0; i < kSeedsPerBlock; ++i) {
    const uint64_t seed = 1 + block * kSeedsPerBlock + i;
    for (QueryShape shape :
         {QueryShape::kStar, QueryShape::kChain, QueryShape::kRandom}) {
      EXPECT_TRUE(RunSoundnessCase(shape, seed));
    }
  }
}

TEST_P(ViewIndexEquivalenceTest, CoreCoverOutputIsByteIdentical) {
  const size_t block = GetParam();
  for (size_t i = 0; i < kSeedsPerBlock; ++i) {
    const uint64_t seed = 1 + block * kSeedsPerBlock + i;
    for (QueryShape shape :
         {QueryShape::kStar, QueryShape::kChain, QueryShape::kRandom}) {
      EXPECT_TRUE(RunCoreCoverIdentityCase(shape, seed));
    }
  }
}

TEST_P(ViewIndexEquivalenceTest, PlannerOutputIsByteIdenticalAcrossThreads) {
  const size_t block = GetParam();
  // Planner identity is pricier (three planners per case), so thin the
  // seeds: every third one still gives ~56 cases per block pair.
  for (size_t i = 0; i < kSeedsPerBlock; i += 3) {
    const uint64_t seed = 1 + block * kSeedsPerBlock + i;
    for (QueryShape shape :
         {QueryShape::kStar, QueryShape::kChain, QueryShape::kRandom}) {
      EXPECT_TRUE(RunPlannerIdentityCase(shape, seed));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, ViewIndexEquivalenceTest,
                         ::testing::Range<size_t>(0, kBlocks));

// A massive-catalog spot check: at 2000 views the indexed planner must
// consider well under the full catalog and still agree byte-for-byte with
// the full scan on a batch of queries.
TEST(ViewIndexEquivalenceTest, MassiveCatalogAgreesAndPrunes) {
  MassiveCatalogConfig config;
  config.num_views = 2000;
  config.num_predicates = 128;
  config.seed = 11;
  const Workload w = GenerateMassiveCatalog(config);
  const std::vector<ConjunctiveQuery> queries =
      GenerateCatalogQueries(config, 8, /*seed=*/77);

  ViewPlanner::Options off;
  off.core_cover.use_view_index = false;
  ViewPlanner full(w.views, Database{}, off);
  ViewPlanner::Options on;
  ViewPlanner indexed(w.views, Database{}, on);

  double considered = 0;
  for (const ConjunctiveQuery& q : queries) {
    const auto a = full.Plan(q, CostModel::kM1);
    const auto b = indexed.Plan(q, CostModel::kM1);
    EXPECT_EQ(PlanKey(a), PlanKey(b)) << q.ToString();
    EXPECT_EQ(a.stats.num_views, b.stats.num_views);
    considered += static_cast<double>(b.stats.num_candidate_views);
  }
  const double ratio = considered / (static_cast<double>(queries.size()) *
                                     static_cast<double>(w.views.size()));
  // Zipf pool of 128 predicates, 6-subgoal star queries: well under half
  // the catalog can share the query's predicates.
  EXPECT_LT(ratio, 0.5) << "indexed planner considered " << ratio
                        << " of the catalog";
}

}  // namespace
}  // namespace vbr
