// Figure 6: time for CoreCover to generate ALL globally-minimal rewritings
// of 8-subgoal STAR queries as the number of views grows to 1000, with (a)
// all variables distinguished and (b) one nondistinguished variable.
//
// The paper reports a flat curve (bounded around 0.5s on 2001 hardware in
// Java); the reproduction should likewise stay flat in the number of views
// because views and view tuples collapse into equivalence classes. Each
// benchmark iteration runs a whole batch of queries; per-query time is
// reported as the "ms_per_query" counter.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "rewrite/core_cover.h"

namespace vbr {
namespace {

void RunFigure6(benchmark::State& state, size_t nondistinguished) {
  const size_t num_views = static_cast<size_t>(state.range(0));
  const auto& batch = bench_util::WorkloadBatch(QueryShape::kStar, num_views,
                                                nondistinguished);
  size_t gmrs = 0;
  size_t with_rewriting = 0;
  for (auto _ : state) {
    gmrs = 0;
    with_rewriting = 0;
    for (const Workload& w : batch) {
      const auto result = CoreCover(w.query, w.views);
      benchmark::DoNotOptimize(result.rewritings.size());
      gmrs += result.rewritings.size();
      with_rewriting += result.has_rewriting ? 1 : 0;
    }
  }
  state.counters["views"] = static_cast<double>(num_views);
  state.counters["avg_gmrs"] =
      static_cast<double>(gmrs) / static_cast<double>(batch.size());
  state.counters["queries_with_rewriting"] =
      static_cast<double>(with_rewriting);
  state.counters["sec_per_query"] = benchmark::Counter(
      static_cast<double>(batch.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_Fig6a_Star_AllDistinguished(benchmark::State& state) {
  RunFigure6(state, 0);
}
void BM_Fig6b_Star_OneNondistinguished(benchmark::State& state) {
  RunFigure6(state, 1);
}

// The arg is num_views (the paper's x-axis).
BENCHMARK(BM_Fig6a_Star_AllDistinguished)
    ->ArgsProduct({{50, 100, 200, 400, 600, 800, 1000}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig6b_Star_OneNondistinguished)
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
