// Catalog-scale benchmark: planning latency vs view-catalog size, with the
// indexed candidate stage on (BM_PlanIndexed) and off (BM_PlanFullScan).
//
// The scenario is GenerateMassiveCatalog: a Zipf-skewed predicate pool
// (hot relations dominate queries, most views touch cold ones) at
// 10^2..10^5 views, the regime ISSUE 9 targets. With the index off every
// plan walks — and, worse, per-view Minimizes — the whole catalog, so
// latency grows linearly with catalog size. With it on, the candidate set
// is whatever the postings intersection returns, so latency tracks the
// query's hot predicates, not the catalog. The `considered_ratio` counter
// (candidate views / catalog views, straight from CoreCoverStats) is the
// sub-linearity witness that scripts/check_catalog_scale.sh gates on.
//
// Cache is off (every Plan pays a full run) and threads = 1 so the
// numbers isolate the candidate stage. M1 keeps costing trivial; the
// instance database is empty, which is fine because CoreCover plans
// against the canonical database it builds itself.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "planner/planner.h"
#include "workload/generator.h"

namespace vbr {
namespace {

constexpr size_t kQueryBatch = 32;

MassiveCatalogConfig ScenarioConfig(size_t catalog_views) {
  MassiveCatalogConfig config;
  config.num_views = catalog_views;
  // Widen the pool with the catalog (but never below 64): a fixed tiny
  // pool would make every view a candidate at every scale and measure
  // nothing. catalog/16 models a large schema where any one query's hot
  // predicates cover a few percent of the views.
  config.num_predicates = std::max<size_t>(64, catalog_views / 16);
  config.predicate_zipf_s = 1.0;
  config.seed = 7;
  return config;
}

void RunCatalogScale(benchmark::State& state, bool use_index) {
  const size_t catalog_views = static_cast<size_t>(state.range(0));
  const MassiveCatalogConfig config = ScenarioConfig(catalog_views);
  const Workload workload = GenerateMassiveCatalog(config);
  const std::vector<ConjunctiveQuery> queries =
      GenerateCatalogQueries(config, kQueryBatch, /*seed=*/1234);

  ViewPlanner::Options options;
  options.enable_cache = false;
  options.core_cover.use_view_index = use_index;
  ViewPlanner planner(workload.views, Database(), options);

  size_t next = 0;
  double considered = 0, planned = 0;
  for (auto _ : state) {
    const ViewPlanner::PlanResult result =
        planner.Plan(queries[next], CostModel::kM1);
    benchmark::DoNotOptimize(result.status);
    considered += static_cast<double>(result.stats.num_candidate_views);
    planned += 1;
    next = (next + 1) % queries.size();
  }
  const double total_catalog = static_cast<double>(workload.views.size());
  state.counters["catalog_views"] = total_catalog;
  state.counters["considered_ratio"] =
      planned == 0 ? 0.0 : considered / (planned * total_catalog);
  state.counters["sec_per_query"] = benchmark::Counter(
      1.0, benchmark::Counter::kIsIterationInvariantRate |
               benchmark::Counter::kInvert);
}

void BM_PlanIndexed(benchmark::State& state) {
  RunCatalogScale(state, /*use_index=*/true);
}
void BM_PlanFullScan(benchmark::State& state) {
  RunCatalogScale(state, /*use_index=*/false);
}

// Arg = number of RANDOM catalog views (coverage singletons ride on top).
// The 10^6 point exists for the nightly catalog soak (see
// scripts/check_catalog_scale.sh with VBR_CATALOG_SOAK=1); the regular
// smoke filter never selects it, so day-to-day runs stay fast.
BENCHMARK(BM_PlanIndexed)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
// The full scan is linear in the catalog; 10^5 points take long enough
// that the 10^4 cap keeps CI smoke runs bounded (EXPERIMENTS.md records a
// one-off 10^5 comparison).
BENCHMARK(BM_PlanFullScan)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vbr

BENCHMARK_MAIN();
