// cold_catalog_m1: rewriting-bound distinct traffic, in process.
//
// A GenerateMassiveCatalog catalog of 10^4 random views (plus one cover
// view per predicate) and a pool of distinct GenerateCatalogQueries
// queries, planned under M1; the data seed draws both, the run's seed the
// order the pool is sent in. The pool is cycled in order and is twice the
// plan cache's default capacity, so every request misses and the cache
// fills and evicts. Costing is a subgoal count here: time goes to the view
// index, view tuples, tuple-cores, set cover, minimization/containment and
// certification, under the default intra-query threading. A costing change
// must read "no change" here; a CoreCover or threading change must show.
#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cq/containment.h"
#include "cq/fingerprint.h"
#include "inprocess.h"
#include "rewrite/certificate.h"
#include "workload/generator.h"
#include "workloads.h"

namespace vbrbench {
namespace {

constexpr size_t kCatalogViews = 10'000;
// Twice ViewPlanner::Options::cache_capacity (1024): cycling the pool in
// order then never finds an entry still cached, in any cache shard.
constexpr size_t kPoolSize = 2048;
constexpr int kSetupRuns = 5;
constexpr size_t kCountWindow = 256;

struct Setup {
  vbr::MassiveCatalogConfig config;
  vbr::ViewSet views;
  std::vector<vbr::ConjunctiveQuery> pool;
  std::unique_ptr<vbr::ViewPlanner> planner;
  double generate_s = 0;
  double total_s = 0;
};

Setup BuildSetup(uint64_t data_seed) {
  vbr::ContainmentMemo::Global().Clear();
  Setup setup;
  const double start = NowSec();
  setup.config.num_views = kCatalogViews;
  setup.config.seed = data_seed * 1'000'003 + 17;
  setup.views = vbr::GenerateMassiveCatalog(setup.config).views;
  setup.pool = vbr::GenerateCatalogQueries(setup.config, kPoolSize,
                                           data_seed * 7'919 + 5);
  setup.generate_s = NowSec() - start;
  // M1 costs a subgoal count, so the planner needs no view instances.
  setup.planner =
      std::make_unique<vbr::ViewPlanner>(setup.views, vbr::Database());
  setup.total_s = NowSec() - start;
  return setup;
}

}  // namespace

Outcome RunColdCatalogM1(const RunOptions& options) {
  Outcome out;
  std::vector<double> setup_s;
  // Set up several times and report the median; each set-up but the
  // last is torn down before the next one starts.
  Setup setup;
  const int setup_runs = options.trace ? 1 : kSetupRuns;
  for (int r = 0; r < setup_runs; ++r) {
    Setup candidate = BuildSetup(options.data_seed);
    setup_s.push_back(candidate.total_s);
    if (r + 1 == setup_runs) setup = std::move(candidate);
  }

  // The pool is visited in a seeded order, then cycled.
  std::vector<size_t> order(setup.pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ULL + 23);
  std::shuffle(order.begin(), order.end(), rng);

  // Every result is checked on the spot (certificate) and, after the
  // timed phases, against a reference plan of the same query.
  std::vector<std::optional<size_t>> served_cost(setup.pool.size());
  size_t sequence = 0;
  size_t current = 0;
  auto next = [&](size_t) {
    current = order[sequence++ % order.size()];
    return InProcessRequest{setup.planner.get(), setup.pool[current],
                            vbr::CostModel::kM1};
  };
  auto check = [&](size_t, const InProcessRequest& request,
                   const vbr::ViewPlanner::PlanResult& result) {
    if (!result.ok()) {
      out.Fail(std::string("cold_catalog_m1: status ") +
               vbr::PlanStatusName(result.status));
      return false;
    }
    const vbr::EquivalenceCertificate& cert = result.choice->certificate;
    std::string error;
    if (!vbr::VerifyCertificate(cert, setup.views, &error) ||
        cert.rewriting.ToString() != result.choice->logical.ToString() ||
        !vbr::FindIsomorphism(cert.query, request.query).has_value()) {
      out.Fail("cold_catalog_m1: certificate check failed " + error);
      return false;
    }
    std::optional<size_t>& cost = served_cost[current];
    if (cost.has_value() && *cost != result.choice->cost) {
      out.Fail("cold_catalog_m1: one query planned at two costs");
      return false;
    }
    cost = result.choice->cost;
    return true;
  };

  LoopResult traced;
  LoopResult untraced;
  vbr::PlanCacheCounters before = setup.planner->cache_counters();
  if (options.trace) {
    traced = RunClosedLoop(options.seconds * 2 / 3, kCountWindow, 0, true,
                           next, check, &out);
  }
  const vbr::PlanCacheCounters after_traced = setup.planner->cache_counters();
  // An untraced run serves the whole pool at least once, so that
  // plan_cost_geomean weighs every pool query once.
  untraced = RunClosedLoop(options.trace ? options.seconds / 3
                                         : options.seconds,
                           options.trace ? 0 : kCountWindow,
                           options.trace ? 0 : kPoolSize, false, next, check,
                           &out);

  // Reference: the same queries planned by a second planner over the same
  // catalog with its cache off, after the timed phases.
  {
    vbr::ViewPlanner::Options ref_options;
    ref_options.enable_cache = false;
    vbr::ViewPlanner reference(setup.views, vbr::Database(), ref_options);
    for (size_t q = 0; q < setup.pool.size(); ++q) {
      if (!served_cost[q].has_value()) continue;
      const auto result =
          reference.Plan(setup.pool[q], vbr::CostModel::kM1);
      if (!result.ok() || result.choice->cost != *served_cost[q]) {
        out.Fail("cold_catalog_m1: served cost differs from the reference "
                 "plan of pool query " + std::to_string(q));
      }
    }
  }

  if (!options.trace) {
    out.Add("setup_s", Median(setup_s), "s");
    AddLatencyMetrics(&out, untraced.latency_ms, "cold_catalog_m1");
    out.Add("throughput_qps", untraced.completed / untraced.elapsed_s,
            "plans/s");
    std::vector<double> pool_costs;
    for (const std::optional<size_t>& cost : served_cost) {
      if (cost.has_value()) pool_costs.push_back(static_cast<double>(*cost));
    }
    out.Add("plan_cost_geomean", GeoMean(pool_costs), "cost");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return out;
  }

  std::fprintf(stderr, "[vbrbench] span tree (traced phase):\n%s",
               SpanTreeText().c_str());
  LayerInputs in;
  in.all = traced.all;
  in.requests = traced.latency_ms.size();
  in.window = traced.window;
  in.window_requests = traced.window_requests;
  in.containment_checks = traced.containment_checks;
  in.memo_hits = traced.memo_hits;
  in.memo_misses = traced.memo_misses;
  in.cache_hits = after_traced.hits - before.hits;
  in.cache_misses = after_traced.misses - before.misses;
  in.generate_s = setup.generate_s;
  in.traced_p50_ms = Median(traced.latency_ms);
  in.untraced_p50_ms = Median(untraced.latency_ms);
  in.error_rate = out.attempted ? double(out.failed) / out.attempted : 0;
  in.latency_samples = traced.latency_ms.size();
  AddLayerMetrics(&out, in, WireLayer{});
  return out;
}

}  // namespace vbrbench
