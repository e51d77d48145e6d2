// repeat_m2: costing-bound repeat traffic, in process.
//
// The Section 7 star (8 subgoals / 50 views) and chain (6 subgoals / 80
// views) setups of bench_plan_cache, with view instances materialized
// from GenerateBaseData. Setup warms the plan cache with one cold plan per
// (query, model); every request is then a fresh renamed and
// subgoal-shuffled variant of one of the queries, so it is a cache hit.
// Models are mixed 3:1 M2:M3: star queries go half to M2 and half to M3,
// chain queries to M2. (An M3 hit on one of these chains costs 1.1-1.5 s,
// about 150x its M2 hit, so a chain M3 share would leave a run too few
// samples for a p99.) A hit skips CoreCover, so nearly all the time goes to
// filter advice, the M2 subset DP, M3 and JoinSize: a costing change shows
// here and should show nowhere else.
//
// At data seed 1 the eight catalogs are bench_plan_cache's setups
// (generator seeds 1000 + 97 i, data seeds 31 i + 7), on which the
// repository's warm-hit figures are measured; the run's seed drives the
// request stream: which query, which model, the renaming and the subgoal
// order.
#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cq/containment.h"
#include "cq/fingerprint.h"
#include "cq/rename.h"
#include "engine/materialize.h"
#include "inprocess.h"
#include "rewrite/certificate.h"
#include "workload/data_gen.h"
#include "workload/generator.h"
#include "workloads.h"

namespace vbrbench {
namespace {

constexpr size_t kStarQueries = 4;
constexpr size_t kChainQueries = 4;
constexpr int kSetupRuns = 5;
constexpr size_t kCountWindow = 256;
// An untraced run plans at least this many requests (about 25 s on a
// 4-core host), so that its p99 has ten samples beyond it.
constexpr size_t kMinSamples = 1000;
// Renamed variants draw their variable prefix from a small ring, so the
// symbol table stops growing after the first few hundred requests.
constexpr size_t kPrefixRing = 16;

struct Instance {
  vbr::Workload workload;
  std::unique_ptr<vbr::ViewPlanner> planner;
  // Reference cost of the cold plan, per model (index: 0 = M2, 1 = M3).
  size_t reference_cost[2] = {0, 0};
};

struct Setup {
  std::vector<Instance> instances;
  double generate_s = 0;
  double materialize_s = 0;
  double total_s = 0;
};

size_t ModelIndex(vbr::CostModel model) {
  return model == vbr::CostModel::kM2 ? 0 : 1;
}

Setup BuildSetup(uint64_t data_seed, Outcome* out) {
  // Every setup starts from an empty containment memo, as a fresh process
  // would.
  vbr::ContainmentMemo::Global().Clear();
  Setup setup;
  const double start = NowSec();
  for (size_t i = 0; i < kStarQueries + kChainQueries; ++i) {
    const bool star = i < kStarQueries;
    double t = NowSec();
    vbr::WorkloadConfig wc;
    wc.shape = star ? vbr::QueryShape::kStar : vbr::QueryShape::kChain;
    wc.num_query_subgoals = star ? 8 : 6;
    wc.num_views = star ? 50 : 80;
    const uint64_t shift = (data_seed - 1) * 10'007;
    wc.seed = 1000 + (i % kStarQueries) * 97 + shift;
    Instance instance;
    instance.workload = vbr::GenerateWorkload(wc);
    vbr::DataConfig dc;
    dc.rows_per_relation = 20;
    dc.domain_size = 12;
    dc.seed = 31 * (i % kStarQueries) + 7 + shift;
    const vbr::Database base = vbr::GenerateBaseData(
        instance.workload.query, instance.workload.views, dc);
    setup.generate_s += NowSec() - t;
    t = NowSec();
    vbr::Database instances =
        vbr::MaterializeViews(instance.workload.views, base);
    setup.materialize_s += NowSec() - t;
    instance.planner = std::make_unique<vbr::ViewPlanner>(
        instance.workload.views, std::move(instances));
    for (vbr::CostModel model : {vbr::CostModel::kM2, vbr::CostModel::kM3}) {
      if (!star && model == vbr::CostModel::kM3) continue;
      const auto result = instance.planner->Plan(instance.workload.query,
                                                 model, vbr::TraceContext{});
      if (!result.ok()) {
        out->Fail("repeat_m2 setup: cold plan of query " + std::to_string(i) +
                  " is " + vbr::PlanStatusName(result.status));
        continue;
      }
      instance.reference_cost[ModelIndex(model)] = result.choice->cost;
    }
    setup.instances.push_back(std::move(instance));
  }
  setup.total_s = NowSec() - start;
  return setup;
}

// One kind of request: a query and the model it is planned under.
struct RequestClass {
  size_t instance = 0;
  vbr::CostModel model = vbr::CostModel::kM2;
};

// The request stream deals the classes from a deck that holds each star
// query once under M2 and once under M3 and each chain query twice under
// M2, reshuffled every round. Any window of the stream therefore holds the
// 3:1 mix almost exactly, whatever the seed, which keeps a run's medians
// steady although the classes differ in cost by an order of magnitude.
class RequestStream {
 public:
  RequestStream(const Setup& setup, uint64_t seed)
      : setup_(setup), rng_(seed * 0x9e3779b97f4a7c15ULL + 11) {
    for (size_t k = 0; k < setup.instances.size(); ++k) {
      const bool star = k < kStarQueries;
      deck_.push_back({k, vbr::CostModel::kM2});
      deck_.push_back({k, star ? vbr::CostModel::kM3 : vbr::CostModel::kM2});
    }
    for (size_t d = 0; d < deck_.size(); ++d) order_.push_back(d);
  }

  const std::vector<RequestClass>& deck() const { return deck_; }

  // The next request: a fresh renamed, subgoal-shuffled variant of the
  // dealt class's query. *slot receives the class's deck position.
  InProcessRequest Next(size_t i, size_t* slot) {
    if (dealt_ % deck_.size() == 0) {
      std::shuffle(order_.begin(), order_.end(), rng_);
    }
    *slot = order_[dealt_++ % deck_.size()];
    const RequestClass& c = deck_[*slot];
    const Instance& instance = setup_.instances[c.instance];
    InProcessRequest request;
    request.planner = instance.planner.get();
    request.model = c.model;
    vbr::ConjunctiveQuery fresh = vbr::RenameVariablesApart(
        instance.workload.query, "R" + std::to_string(i % kPrefixRing));
    std::vector<vbr::Atom> body = fresh.body();
    std::shuffle(body.begin(), body.end(), rng_);
    request.query = vbr::ConjunctiveQuery(fresh.head(), std::move(body));
    return request;
  }

 private:
  const Setup& setup_;
  std::mt19937_64 rng_;
  std::vector<RequestClass> deck_;
  std::vector<size_t> order_;
  size_t dealt_ = 0;
};

// A hit must reproduce the cold plan's cost, and its certificate must
// verify, state the chosen rewriting, and be about this query (the
// generated queries are their own cores). The check stays clear of the
// containment memo, so it does not change what the next request finds.
bool CheckResult(const Instance& instance, const InProcessRequest& request,
                 const vbr::ViewPlanner::PlanResult& result, Outcome* out) {
  if (!result.ok()) {
    out->Fail(std::string("repeat_m2: status ") +
              vbr::PlanStatusName(result.status));
    return false;
  }
  const size_t expected = instance.reference_cost[ModelIndex(request.model)];
  if (result.choice->cost != expected) {
    out->Fail("repeat_m2: cost " + std::to_string(result.choice->cost) +
              " != reference " + std::to_string(expected));
    return false;
  }
  if (!result.cache_hit) {
    out->Fail("repeat_m2: a renamed variant missed the plan cache");
    return false;
  }
  const vbr::EquivalenceCertificate& cert = result.choice->certificate;
  std::string error;
  if (!vbr::VerifyCertificate(cert, instance.workload.views, &error) ||
      cert.rewriting.ToString() != result.choice->logical.ToString() ||
      !vbr::FindIsomorphism(cert.query, request.query).has_value()) {
    out->Fail("repeat_m2: certificate check failed " + error);
    return false;
  }
  return true;
}

}  // namespace

Outcome RunRepeatM2(const RunOptions& options) {
  Outcome out;
  std::vector<double> setup_s;
  // Set up several times and report the median; each set-up but the
  // last is torn down before the next one starts.
  Setup setup;
  const int setup_runs = options.trace ? 1 : kSetupRuns;
  for (int r = 0; r < setup_runs; ++r) {
    Setup candidate = BuildSetup(options.data_seed, &out);
    setup_s.push_back(candidate.total_s);
    if (r + 1 == setup_runs) setup = std::move(candidate);
  }
  if (!out.correct) return out;

  RequestStream stream(setup, options.seed);
  size_t slot = 0;  // deck position of the request in flight
  // Cost served per deck position; plan_cost_geomean weighs each once.
  std::vector<double> served_cost(stream.deck().size(), 0);
  auto next = [&](size_t i) { return stream.Next(i, &slot); };
  auto check = [&](size_t, const InProcessRequest& request,
                   const vbr::ViewPlanner::PlanResult& result) {
    const bool ok = CheckResult(setup.instances[stream.deck()[slot].instance],
                                request, result, &out);
    if (ok) served_cost[slot] = static_cast<double>(result.choice->cost);
    return ok;
  };

  if (!options.trace) {
    const LoopResult loop =
        RunClosedLoop(options.seconds, kCountWindow, kMinSamples, false, next,
                      check, &out);
    out.Add("setup_s", Median(setup_s), "s");
    AddLatencyMetrics(&out, loop.latency_ms, "repeat_m2");
    out.Add("throughput_qps", loop.completed / loop.elapsed_s, "plans/s");
    out.Add("plan_cost_geomean", GeoMean(served_cost), "cost");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return out;
  }

  // Traced run: the traced phase first (same starting state as an untraced
  // run), then an untraced phase continuing the stream, as the baseline
  // of trace.overhead_ratio.
  const auto cache_counters = [&] {
    vbr::PlanCacheCounters c;
    for (const Instance& instance : setup.instances) {
      const vbr::PlanCacheCounters ic = instance.planner->cache_counters();
      c.hits += ic.hits;
      c.misses += ic.misses;
    }
    return c;
  };
  const vbr::PlanCacheCounters before = cache_counters();
  const LoopResult traced = RunClosedLoop(options.seconds * 2 / 3,
                                          kCountWindow, 0, true, next, check,
                                          &out);
  const vbr::PlanCacheCounters after = cache_counters();
  const LoopResult untraced = RunClosedLoop(options.seconds / 3, 0, 0,
                                            false, next, check, &out);
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
  in.cache_hits = after.hits - before.hits;
  in.cache_misses = after.misses - before.misses;
  in.generate_s = setup.generate_s;
  in.materialize_s = setup.materialize_s;
  in.traced_p50_ms = Median(traced.latency_ms);
  in.untraced_p50_ms = Median(untraced.latency_ms);
  in.error_rate = out.attempted ? double(out.failed) / out.attempted : 0;
  in.latency_samples = traced.latency_ms.size();
  AddLayerMetrics(&out, in, WireLayer{});
  return out;
}

}  // namespace vbrbench
