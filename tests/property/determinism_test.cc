// Reproducibility: the entire pipeline must be deterministic — same inputs,
// byte-identical outputs — across repeated in-process runs and across
// concurrent callers (service workers run CoreCover side by side).
// (Fresh-variable NAMES differ between runs by design; the checks below
// compare structures that must not depend on them.)

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "cq/containment.h"
#include "rewrite/core_cover.h"
#include "workload/generator.h"

namespace vbr {
namespace {

class DeterminismTest : public ::testing::TestWithParam<uint64_t> {};

Workload MakeWorkload(uint64_t seed) {
  WorkloadConfig config;
  config.shape = (seed % 2 == 0) ? QueryShape::kStar : QueryShape::kChain;
  config.num_query_subgoals = 6;
  config.num_views = 20;
  config.seed = seed;
  return GenerateWorkload(config);
}

TEST_P(DeterminismTest, CoreCoverIsDeterministic) {
  const Workload w = MakeWorkload(GetParam());
  const auto first = CoreCover(w.query, w.views);
  const auto second = CoreCover(w.query, w.views);
  EXPECT_EQ(first.has_rewriting, second.has_rewriting);
  EXPECT_EQ(first.stats.minimum_cover_size,
            second.stats.minimum_cover_size);
  ASSERT_EQ(first.rewritings.size(), second.rewritings.size());
  for (size_t i = 0; i < first.rewritings.size(); ++i) {
    EXPECT_EQ(first.rewritings[i], second.rewritings[i]);
  }
  ASSERT_EQ(first.view_tuples.size(), second.view_tuples.size());
  for (size_t i = 0; i < first.view_tuples.size(); ++i) {
    EXPECT_EQ(first.view_tuples[i].tuple.atom,
              second.view_tuples[i].tuple.atom);
    EXPECT_EQ(first.view_tuples[i].core.covered_mask,
              second.view_tuples[i].core.covered_mask);
    EXPECT_EQ(first.view_tuples[i].class_id, second.view_tuples[i].class_id);
  }
}

TEST_P(DeterminismTest, MinimizeIsIdempotentAndDeterministic) {
  const Workload w = MakeWorkload(GetParam());
  const ConjunctiveQuery m1 = Minimize(w.query);
  const ConjunctiveQuery m2 = Minimize(w.query);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(Minimize(m1), m1);  // Idempotence.
}

TEST_P(DeterminismTest, CoreCoverStarIsDeterministic) {
  const Workload w = MakeWorkload(GetParam());
  CoreCoverOptions options;
  options.max_rewritings = 32;
  const auto first = CoreCoverStar(w.query, w.views, options);
  const auto second = CoreCoverStar(w.query, w.views, options);
  ASSERT_EQ(first.rewritings.size(), second.rewritings.size());
  for (size_t i = 0; i < first.rewritings.size(); ++i) {
    EXPECT_EQ(first.rewritings[i], second.rewritings[i]);
  }
  EXPECT_EQ(first.filter_candidates, second.filter_candidates);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Range<uint64_t>(1, 11));

// The star/chain workloads with and without nondistinguished variables,
// each run by 1, 2 and 8 concurrent callers whose results must all equal
// one serial reference run.
const size_t kThreadCounts[] = {1, 2, 8};

struct Config {
  QueryShape shape;
  uint64_t seed;
  size_t nondistinguished;
};

class ThreadingDeterminismTest : public ::testing::TestWithParam<Config> {};

Workload MakeWorkload(const Config& config) {
  WorkloadConfig wc;
  wc.shape = config.shape;
  wc.num_query_subgoals = 6;
  wc.num_views = 30;
  wc.num_nondistinguished_query_vars = config.nondistinguished;
  wc.num_nondistinguished_view_vars = config.nondistinguished;
  wc.seed = config.seed;
  return GenerateWorkload(wc);
}

// Everything that must not depend on who else is planning. Wall-clock
// timings are intentionally excluded.
void ExpectSameResult(const CoreCoverResult& base,
                      const CoreCoverResult& other) {
  EXPECT_EQ(base.status, other.status);
  EXPECT_EQ(base.has_rewriting, other.has_rewriting);
  EXPECT_EQ(base.truncated, other.truncated);
  EXPECT_EQ(base.minimized_query, other.minimized_query);
  ASSERT_EQ(base.rewritings.size(), other.rewritings.size());
  for (size_t i = 0; i < base.rewritings.size(); ++i) {
    EXPECT_EQ(base.rewritings[i], other.rewritings[i]);
  }
  EXPECT_EQ(base.filter_candidates, other.filter_candidates);
  ASSERT_EQ(base.view_tuples.size(), other.view_tuples.size());
  for (size_t i = 0; i < base.view_tuples.size(); ++i) {
    EXPECT_EQ(base.view_tuples[i].tuple.atom, other.view_tuples[i].tuple.atom);
    EXPECT_EQ(base.view_tuples[i].tuple.view_index,
              other.view_tuples[i].tuple.view_index);
    EXPECT_EQ(base.view_tuples[i].core.covered_mask,
              other.view_tuples[i].core.covered_mask);
    EXPECT_EQ(base.view_tuples[i].core.covered,
              other.view_tuples[i].core.covered);
    EXPECT_EQ(base.view_tuples[i].class_id, other.view_tuples[i].class_id);
    EXPECT_EQ(base.view_tuples[i].is_class_representative,
              other.view_tuples[i].is_class_representative);
  }
  EXPECT_EQ(base.stats.num_views, other.stats.num_views);
  EXPECT_EQ(base.stats.num_view_classes, other.stats.num_view_classes);
  EXPECT_EQ(base.stats.num_view_tuples, other.stats.num_view_tuples);
  EXPECT_EQ(base.stats.num_tuple_classes, other.stats.num_tuple_classes);
  EXPECT_EQ(base.stats.num_nonempty_cores, other.stats.num_nonempty_cores);
  EXPECT_EQ(base.stats.minimum_cover_size, other.stats.minimum_cover_size);
  EXPECT_EQ(base.stats.view_tuple_tasks, other.stats.view_tuple_tasks);
  EXPECT_EQ(base.stats.tuple_core_tasks, other.stats.tuple_core_tasks);
  EXPECT_EQ(base.stats.verify_tasks, other.stats.verify_tasks);
  EXPECT_EQ(base.stats.cover_branch_tasks, other.stats.cover_branch_tasks);
  EXPECT_EQ(other.stats.threads_used, 1u);
}

// Runs `run` on `threads` concurrent callers and checks every result
// against a serial reference run.
template <typename Run>
void ExpectConcurrentRunsMatchSerial(const Run& run) {
  const CoreCoverResult base = run();
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE("concurrent callers=" + std::to_string(threads));
    std::vector<CoreCoverResult> results(threads);
    std::vector<std::thread> callers;
    for (size_t t = 0; t < threads; ++t) {
      callers.emplace_back([&, t] { results[t] = run(); });
    }
    for (std::thread& caller : callers) caller.join();
    for (const CoreCoverResult& result : results) {
      ExpectSameResult(base, result);
    }
  }
}

TEST_P(ThreadingDeterminismTest, CoreCoverMatchesSerialAtEveryThreadCount) {
  const Workload w = MakeWorkload(GetParam());
  CoreCoverOptions options;
  options.verify_rewritings = true;
  ExpectConcurrentRunsMatchSerial(
      [&] { return CoreCover(w.query, w.views, options); });
}

TEST_P(ThreadingDeterminismTest, CoreCoverStarMatchesSerialAtEveryThreadCount) {
  const Workload w = MakeWorkload(GetParam());
  CoreCoverOptions options;
  options.max_rewritings = 64;  // Small cap: truncation must also agree.
  ExpectConcurrentRunsMatchSerial(
      [&] { return CoreCoverStar(w.query, w.views, options); });
}

TEST_P(ThreadingDeterminismTest, UngroupedPipelineAlsoDeterministic) {
  // Grouping off maximizes the number of tuple-cores and cover candidates.
  const Workload w = MakeWorkload(GetParam());
  CoreCoverOptions options;
  options.group_views = false;
  options.group_view_tuples = false;
  options.max_rewritings = 32;
  ExpectConcurrentRunsMatchSerial(
      [&] { return CoreCover(w.query, w.views, options); });
}

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (const QueryShape shape : {QueryShape::kStar, QueryShape::kChain}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      for (size_t nondist : {size_t{0}, size_t{1}}) {
        configs.push_back({shape, seed, nondist});
      }
    }
  }
  return configs;
}

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  return std::string(info.param.shape == QueryShape::kStar ? "star" : "chain") +
         "_seed" + std::to_string(info.param.seed) + "_nd" +
         std::to_string(info.param.nondistinguished);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ThreadingDeterminismTest,
                         ::testing::ValuesIn(AllConfigs()), ConfigName);

}  // namespace
}  // namespace vbr
