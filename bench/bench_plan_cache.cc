// Plan-cache benchmark: warm-vs-cold planning latency over Section 7
// chain/star workloads.
//
// "Cold" plans every query through a cache-disabled planner built fresh
// for it outside the timed region: every request pays the full CoreCover*
// run, and the planner's per-snapshot costing memo starts empty (a reused
// planner would serve the renamed variants' costing from the memo its
// first plan filled). "Warm" pre-populates the cache with one
// representative per query and then measures renamed/reordered variants,
// which hit the fingerprint cache and only pay canonicalization plus
// re-costing. The hit_rate counter comes straight from the planner's cache
// counters; warm speedup in EXPERIMENTS.md is cold time / warm time.
//
// Both cost models are reported because they bound the cache's win from
// opposite sides. Under M1 a hit skips everything that matters
// (minimization, CoreCover, certification) and re-costing is a subgoal
// count, so warm-over-cold speedup is an order of magnitude. Under M2 the
// planner re-costs every cached rewriting against the current instances by
// design (the executed-join subset DP dominates cold planning in these
// workloads), so the speedup is modest — that is the price of plans that
// keep tracking instance sizes.
//
// The configurations are deliberately smaller than the figure benches
// (4 workloads, star 8 subgoals / 50 views, chain 6 subgoals / 80 views,
// 20 rows per base relation, max_rewritings 16): a COLD M2 plan costs
// 10s-100s of milliseconds here, so an uncapped Section 7 point would make
// every iteration pay tens of seconds for information the figure benches
// already report.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "cq/rename.h"
#include "cq/substitution.h"
#include "engine/materialize.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "workload/data_gen.h"
#include "workload/generator.h"

namespace vbr {
namespace {

constexpr size_t kWorkloads = 4;
constexpr int kVariantRounds = 4;

// Renamed + subgoal-shuffled copy of `q` — the cache must recognize it.
ConjunctiveQuery Variant(const ConjunctiveQuery& q, std::mt19937& rng,
                         int round) {
  ConjunctiveQuery fresh =
      RenameVariablesApart(q, "w" + std::to_string(round));
  std::vector<Atom> body = fresh.body();
  std::shuffle(body.begin(), body.end(), rng);
  return ConjunctiveQuery(fresh.head(), std::move(body));
}

struct CacheWorkload {
  std::vector<Workload> base;
  std::vector<Database> view_dbs;
  // kVariantRounds renamed/shuffled copies of every base query.
  std::vector<std::vector<ConjunctiveQuery>> variants;
};

const CacheWorkload& SharedWorkload(QueryShape shape) {
  static auto* star = new CacheWorkload;
  static auto* chain = new CacheWorkload;
  CacheWorkload& w = (shape == QueryShape::kStar) ? *star : *chain;
  if (!w.base.empty()) return w;
  std::mt19937 rng(2026);
  for (size_t i = 0; i < kWorkloads; ++i) {
    WorkloadConfig wc;
    wc.shape = shape;
    wc.num_query_subgoals = (shape == QueryShape::kStar) ? 8 : 6;
    wc.num_views = (shape == QueryShape::kStar) ? 50 : 80;
    wc.seed = 1000 + i * 97;
    w.base.push_back(GenerateWorkload(wc));
    DataConfig dc;
    dc.rows_per_relation = 20;
    dc.domain_size = 12;
    dc.seed = 31 * i + 7;
    const Database base_db =
        GenerateBaseData(w.base[i].query, w.base[i].views, dc);
    w.view_dbs.push_back(MaterializeViews(w.base[i].views, base_db));
    std::vector<ConjunctiveQuery> vs;
    for (int round = 0; round < kVariantRounds; ++round) {
      vs.push_back(Variant(w.base[i].query, rng, round));
    }
    w.variants.push_back(std::move(vs));
  }
  return w;
}

ViewPlanner::Options BenchOptions(bool enable_cache) {
  ViewPlanner::Options options;
  options.enable_cache = enable_cache;
  options.core_cover.max_rewritings = 16;
  return options;
}

std::unique_ptr<ViewPlanner> MakePlanner(const CacheWorkload& w, size_t i,
                                         bool enable_cache) {
  return std::make_unique<ViewPlanner>(w.base[i].views, w.view_dbs[i],
                                       BenchOptions(enable_cache));
}

void RunPlanLatency(benchmark::State& state, QueryShape shape, bool warm) {
  const CostModel model =
      state.range(0) == 0 ? CostModel::kM1 : CostModel::kM2;
  const CacheWorkload& w = SharedWorkload(shape);
  std::vector<std::unique_ptr<ViewPlanner>> planners;
  size_t planned_per_iter = 0;
  for (size_t i = 0; i < w.base.size(); ++i) {
    planners.push_back(MakePlanner(w, i, warm));
    if (warm) {
      // Pre-populate: the representative pays the one cold run.
      benchmark::DoNotOptimize(planners[i]->Plan(w.base[i].query, model));
    }
    planned_per_iter += w.variants[i].size();
  }
  for (auto _ : state) {
    for (size_t i = 0; i < w.base.size(); ++i) {
      for (const ConjunctiveQuery& q : w.variants[i]) {
        if (!warm) {
          state.PauseTiming();
          planners[i] = MakePlanner(w, i, /*enable_cache=*/false);
          state.ResumeTiming();
        }
        benchmark::DoNotOptimize(planners[i]->Plan(q, model));
      }
    }
  }
  uint64_t hits = 0, misses = 0;
  for (const auto& planner : planners) {
    hits += planner->cache_counters().hits;
    misses += planner->cache_counters().misses;
  }
  state.counters["hit_rate"] =
      (hits + misses) == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  state.counters["sec_per_query"] = benchmark::Counter(
      static_cast<double>(planned_per_iter),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_PlanStar_Cold(benchmark::State& state) {
  RunPlanLatency(state, QueryShape::kStar, /*warm=*/false);
}
void BM_PlanStar_Warm(benchmark::State& state) {
  RunPlanLatency(state, QueryShape::kStar, /*warm=*/true);
}
void BM_PlanChain_Cold(benchmark::State& state) {
  RunPlanLatency(state, QueryShape::kChain, /*warm=*/false);
}
void BM_PlanChain_Warm(benchmark::State& state) {
  RunPlanLatency(state, QueryShape::kChain, /*warm=*/true);
}

// Arg 0 = cost model (0 -> M1, 1 -> M2).
BENCHMARK(BM_PlanStar_Cold)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlanStar_Warm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlanChain_Cold)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlanChain_Warm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// After the benchmarks: one sample EXPLAIN of a warm-cache plan plus the
// process-wide metrics snapshot, so a bench run doubles as an observability
// smoke test (and EXPERIMENTS.md can quote real counter values).
void DumpObservability() {
  const CacheWorkload& w = SharedWorkload(QueryShape::kStar);
  ViewPlanner planner(w.base[0].views, w.view_dbs[0],
                      BenchOptions(/*enable_cache=*/true));
  benchmark::DoNotOptimize(planner.Plan(w.base[0].query, CostModel::kM2));
  const auto explanation =
      planner.Explain(w.variants[0][0], {.model = CostModel::kM2});
  std::fprintf(stderr, "\n--- sample EXPLAIN (warm cache) ---\n%s",
               explanation.ToText().c_str());
  std::fprintf(stderr, "\n--- metrics snapshot ---\n%s",
               MetricsRegistry::Global().Snapshot().ToText().c_str());
}

}  // namespace
}  // namespace vbr

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  vbr::DumpObservability();
  return 0;
}
