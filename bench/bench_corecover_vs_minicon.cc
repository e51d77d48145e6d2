// Section 4.3 / Example 4.2: CoreCover vs MiniCon on the query family
//
//   q(X,Y) :- a1(X,Z1), b1(Z1,Y), ..., ak(X,Zk), bk(Zk,Y)
//
// with one view identical to the query plus k-1 pairwise views. CoreCover
// emits the single-literal GMR; MiniCon's disjoint minimal MCDs force every
// rewriting to k literals. Counters report the smallest rewriting each side
// produces (the paper's qualitative claim) alongside the running-time gap.

#include <benchmark/benchmark.h>

#include <string>

#include "baseline/minicon.h"
#include "cq/parser.h"
#include "rewrite/core_cover.h"

namespace vbr {
namespace {

ConjunctiveQuery Example42Query(int k) {
  std::string body;
  for (int i = 1; i <= k; ++i) {
    if (i > 1) body += ", ";
    body += "a" + std::to_string(i) + "(X,Z" + std::to_string(i) + "), ";
    body += "b" + std::to_string(i) + "(Z" + std::to_string(i) + ",Y)";
  }
  return MustParseQuery("q(X,Y) :- " + body);
}

ViewSet Example42Views(int k) {
  std::string text = "v(X,Y) :- ";
  for (int i = 1; i <= k; ++i) {
    if (i > 1) text += ", ";
    text += "a" + std::to_string(i) + "(X,Z" + std::to_string(i) + "), ";
    text += "b" + std::to_string(i) + "(Z" + std::to_string(i) + ",Y)";
  }
  text += "\n";
  for (int i = 1; i <= k - 1; ++i) {
    const std::string s = std::to_string(i);
    text += "v" + s + "(X,Y) :- a" + s + "(X,Z" + s + "), b" + s + "(Z" + s +
            ",Y)\n";
  }
  return MustParseProgram(text);
}

void BM_CoreCover_Example42(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const ConjunctiveQuery q = Example42Query(k);
  const ViewSet views = Example42Views(k);
  size_t best = 0;
  for (auto _ : state) {
    const auto result = CoreCover(q, views);
    benchmark::DoNotOptimize(result.rewritings.size());
    best = result.stats.minimum_cover_size;
  }
  state.counters["k"] = k;
  state.counters["smallest_rewriting_subgoals"] = static_cast<double>(best);
}

void BM_MiniCon_Example42(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const ConjunctiveQuery q = Example42Query(k);
  const ViewSet views = Example42Views(k);
  size_t best = 0;
  size_t mcds = 0;
  for (auto _ : state) {
    const auto result = MiniCon(q, views);
    benchmark::DoNotOptimize(result.equivalent_rewritings.size());
    best = SIZE_MAX;
    for (const auto& p : result.equivalent_rewritings) {
      best = std::min(best, p.num_subgoals());
    }
    mcds = result.mcds.size();
  }
  state.counters["k"] = k;
  state.counters["smallest_rewriting_subgoals"] = static_cast<double>(best);
  state.counters["mcds"] = static_cast<double>(mcds);
}

BENCHMARK(BM_CoreCover_Example42)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MiniCon_Example42)
    ->Arg(2)->Arg(3)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vbr

BENCHMARK_MAIN();
