// Figure 8: time for CoreCover to generate all GMRs of 8-subgoal CHAIN
// queries (binary relations, subchain views of 1-3 subgoals) as the number
// of views grows to 1000, with all variables distinguished (a) and one
// nondistinguished (b). The paper reports < 2s per query at 1000 views with
// a flat trend; the shape — flatness in the number of views — is what this
// bench reproduces.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "rewrite/core_cover.h"

namespace vbr {
namespace {

void RunFigure8(benchmark::State& state, size_t nondistinguished) {
  const size_t num_views = static_cast<size_t>(state.range(0));
  const auto& batch = bench_util::WorkloadBatch(QueryShape::kChain, num_views,
                                                nondistinguished);
  size_t gmrs = 0;
  for (auto _ : state) {
    gmrs = 0;
    for (const Workload& w : batch) {
      const auto result = CoreCover(w.query, w.views);
      benchmark::DoNotOptimize(result.rewritings.size());
      gmrs += result.rewritings.size();
    }
  }
  state.counters["views"] = static_cast<double>(num_views);
  state.counters["avg_gmrs"] =
      static_cast<double>(gmrs) / static_cast<double>(batch.size());
  state.counters["sec_per_query"] = benchmark::Counter(
      static_cast<double>(batch.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_Fig8a_Chain_AllDistinguished(benchmark::State& state) {
  RunFigure8(state, 0);
}
void BM_Fig8b_Chain_OneNondistinguished(benchmark::State& state) {
  RunFigure8(state, 1);
}

// The arg is num_views (the paper's x-axis).
BENCHMARK(BM_Fig8a_Chain_AllDistinguished)
    ->ArgsProduct({{50, 100, 200, 400, 600, 800, 1000}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig8b_Chain_OneNondistinguished)
    ->ArgsProduct({{50, 100, 200, 400, 600, 800, 1000}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vbr

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Process-wide pipeline metrics accumulated across every run above.
  std::fprintf(stderr, "\n--- metrics snapshot ---\n%s",
               vbr::MetricsRegistry::Global().Snapshot().ToText().c_str());
  return 0;
}
