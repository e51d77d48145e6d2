// Cost of the resource-governance layer on the CoreCover* hot path: the
// same workload ungoverned (no ResourceGovernor installed — the seed
// behavior), governed with a budget it never hits (the steady-state cost of
// the cooperative checks), and governed with a deadline. The first two
// should be within noise of each other; that is the "cheap enough to leave
// on" claim in DESIGN.md "Resource governance".

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/budget.h"
#include "rewrite/core_cover.h"
#include "workload/generator.h"

namespace vbr {
namespace {

Workload BenchWorkload(uint64_t seed) {
  WorkloadConfig wc;
  wc.shape = QueryShape::kStar;
  wc.num_query_subgoals = 8;
  wc.num_predicates = 2;
  wc.num_views = 12;
  wc.seed = seed;
  return GenerateWorkload(wc);
}

void BM_CoreCoverUngoverned(benchmark::State& state) {
  const Workload w = BenchWorkload(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CoreCoverStar(w.query, w.views));
  }
}
BENCHMARK(BM_CoreCoverUngoverned)->Arg(1)->Arg(5);

void BM_CoreCoverGovernedGenerousBudget(benchmark::State& state) {
  const Workload w = BenchWorkload(static_cast<uint64_t>(state.range(0)));
  ResourceLimits limits;
  limits.work_limit = uint64_t{1} << 40;  // present, never trips
  for (auto _ : state) {
    ResourceGovernor governor(limits);
    GovernorScope scope(&governor);
    benchmark::DoNotOptimize(CoreCoverStar(w.query, w.views));
  }
}
BENCHMARK(BM_CoreCoverGovernedGenerousBudget)->Arg(1)->Arg(5);

void BM_CoreCoverGovernedDeadline(benchmark::State& state) {
  const Workload w = BenchWorkload(static_cast<uint64_t>(state.range(0)));
  ResourceLimits limits;
  limits.deadline_ms = 60'000;  // present, never expires
  for (auto _ : state) {
    ResourceGovernor governor(limits);
    GovernorScope scope(&governor);
    benchmark::DoNotOptimize(CoreCoverStar(w.query, w.views));
  }
}
BENCHMARK(BM_CoreCoverGovernedDeadline)->Arg(1)->Arg(5);

}  // namespace
}  // namespace vbr

BENCHMARK_MAIN();
