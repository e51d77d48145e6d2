// wire_churn: a serving mix with writes beside reads, over the wire.
//
// A GenerateMassiveCatalog catalog of 10^3 views with materialized
// instances, served by a PlanServer in front of a PlanningService, all
// with default options, on a loopback port of this process. One client
// connection sends catalog queries, each drawn by Zipf popularity from a
// fixed pool, mostly under M1 with an M2 share. While the measured phase
// runs, every kDeltaEvery requests a second load thread applies AddViews
// with a batch of new views (some relevant to pool queries), and
// kDeltaEvery requests later RemoveViews on the same batch, so the catalog
// alternates between two states and affected cache entries are re-planned
// cold.
//
// It is the only workload that loads the frame codec, server IO, the
// service queue, cache invalidation and delta publication.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cq/containment.h"
#include "engine/materialize.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "planner/service.h"
#include "server/plan_server.h"
#include "spans.h"
#include "wire_client.h"
#include "workload/data_gen.h"
#include "workload/generator.h"
#include "workloads.h"

namespace vbrbench {
namespace {

// The data seed draws the catalog, the query pool and the data; the run's
// seed drives the request stream (popularity draws and models). At data
// seed 1, 5 of the 256 pool queries get no M2 plan: CoreCoverStar, capped at
// the planner's default 64 rewritings, returns none for them although an
// uncapped run finds 237 (the M1 plan exists). The benchmark's references
// come from the same planner, so these requests are checked for the same
// "no rewriting" answer and left out of plan_cost_geomean.
constexpr size_t kCatalogViews = 1'000;
constexpr size_t kPoolSize = 256;
constexpr double kPoolZipfS = 1.0;
// Share of requests planned under M2; the rest use M1.
constexpr double kM2Share = 0.1;
constexpr size_t kDeltaViews = 4;
constexpr size_t kDeltaEvery = 1'000;
constexpr int kSetupRuns = 3;
// The run opens with an open-loop phase at a modest fixed rate without
// deltas (transport latency, generator lateness; not a metric), then
// spends the rest in a closed loop holding kWindow requests in flight while
// the deltas run. The window is a fixed backlog well inside the service's
// default 64-request queue, so no request is refused however long a
// post-delta re-plan takes, and the server is never idle, so host wake-up
// latency does not dominate the figures.
constexpr double kOpenLoopRate = 500;
constexpr double kOpenLoopShare = 0.2;
constexpr size_t kWindow = 32;
// The first requests of each phase are checked but not timed: the server's
// threads and caches settle first.
constexpr size_t kWarmupRequests = 1'000;
// Requests of the traced phase whose server-side spans are kept.
constexpr size_t kTracedRecords = 100'000;
constexpr double kGraceS = 5.0;

// A planning outcome as the wire reports it: the PlanStatus and, for a
// plan, its cost. References are outcomes, not just costs: a query the
// planner answers with "no rewriting" must get that answer every time.
struct PlanOutcome {
  uint8_t status = 0;
  uint64_t cost = 0;

  static PlanOutcome Of(const vbr::ViewPlanner::PlanResult& result) {
    return {static_cast<uint8_t>(result.status),
            result.ok() ? result.choice->cost : 0};
  }
  static PlanOutcome Of(const WireSample& sample) {
    return {sample.plan_status,
            sample.plan_status == static_cast<uint8_t>(vbr::PlanStatus::kOk)
                ? sample.cost
                : 0};
  }
  bool operator==(const PlanOutcome&) const = default;
};

struct Setup {
  vbr::ViewSet views;
  vbr::ViewSet delta;
  std::vector<std::string> delta_names;
  vbr::Database delta_db;
  std::vector<vbr::ConjunctiveQuery> pool;
  std::vector<std::string> pool_text;
  // Declared in construction order; destroyed server first.
  std::unique_ptr<vbr::ViewPlanner> planner;
  std::unique_ptr<vbr::PlanningService> service;
  std::unique_ptr<vbr::server::PlanServer> server;
  // Outcomes of the warm-up plans (catalog without the delta), per model
  // (0 = M1, 1 = M2) and pool query.
  std::vector<PlanOutcome> outcome_a[2];
  double generate_s = 0;
  double materialize_s = 0;
  double total_s = 0;
};

size_t ModelIndex(vbr::CostModel model) {
  return model == vbr::CostModel::kM1 ? 0 : 1;
}

Setup BuildSetup(uint64_t data_seed, Outcome* out) {
  vbr::ContainmentMemo::Global().Clear();
  Setup setup;
  const double start = NowSec();
  vbr::MassiveCatalogConfig config;
  config.num_views = kCatalogViews;
  config.seed = data_seed * 1'000'003 + 29;
  vbr::Workload catalog = vbr::GenerateMassiveCatalog(config);
  setup.views = std::move(catalog.views);
  setup.pool = vbr::GenerateCatalogQueries(config, kPoolSize,
                                           data_seed * 7'919 + 3);
  for (const vbr::ConjunctiveQuery& q : setup.pool) {
    setup.pool_text.push_back(q.ToString());
  }
  // The delta batch: random views over the same Zipf-skewed predicates
  // (so the hot ones make some of them relevant), renamed apart.
  vbr::MassiveCatalogConfig delta_config = config;
  delta_config.num_views = kDeltaViews;
  delta_config.cover_all_predicates = false;
  delta_config.seed = config.seed + 1;
  const vbr::ViewSet delta_raw =
      vbr::GenerateMassiveCatalog(delta_config).views;
  for (size_t i = 0; i < delta_raw.size(); ++i) {
    const std::string name = "delta" + std::to_string(i);
    setup.delta_names.push_back(name);
    setup.delta.emplace_back(vbr::Atom(name, delta_raw[i].head().args()),
                             delta_raw[i].body());
  }
  vbr::ViewSet all_views = setup.views;
  all_views.insert(all_views.end(), setup.delta.begin(), setup.delta.end());
  vbr::DataConfig dc;
  dc.rows_per_relation = 20;
  dc.domain_size = 12;
  dc.seed = data_seed * 31 + 7;
  const vbr::Database base =
      vbr::GenerateBaseData(setup.pool.front(), all_views, dc);
  setup.generate_s = NowSec() - start;

  double t = NowSec();
  vbr::Database instances = vbr::MaterializeViews(setup.views, base);
  setup.delta_db = vbr::MaterializeViews(setup.delta, base);
  setup.materialize_s = NowSec() - t;

  setup.planner = std::make_unique<vbr::ViewPlanner>(setup.views,
                                                     std::move(instances));
  for (vbr::CostModel model : {vbr::CostModel::kM1, vbr::CostModel::kM2}) {
    for (const vbr::ConjunctiveQuery& q : setup.pool) {
      setup.outcome_a[ModelIndex(model)].push_back(PlanOutcome::Of(
          setup.planner->Plan(q, model, vbr::TraceContext{})));
    }
  }
  setup.service = std::make_unique<vbr::PlanningService>(
      setup.planner.get(), vbr::PlanningService::Options());
  setup.server = std::make_unique<vbr::server::PlanServer>(
      setup.service.get(), vbr::server::PlanServerOptions());
  std::string error;
  if (!setup.server->Start(&error)) out->Fail("server start: " + error);
  setup.total_s = NowSec() - start;
  return setup;
}

// Plan costs with the delta batch added, from a second planner that
// starts cold on that catalog.
void ReferenceWithDelta(const Setup& setup,
                        std::vector<PlanOutcome> outcome_b[2]) {
  vbr::ViewSet views = setup.views;
  views.insert(views.end(), setup.delta.begin(), setup.delta.end());
  vbr::Database instances = setup.planner->snapshot()->instances;
  instances.MergeFrom(setup.delta_db);
  vbr::ViewPlanner reference(std::move(views), std::move(instances));
  for (vbr::CostModel model : {vbr::CostModel::kM1, vbr::CostModel::kM2}) {
    for (const vbr::ConjunctiveQuery& q : setup.pool) {
      outcome_b[ModelIndex(model)].push_back(
          PlanOutcome::Of(reference.Plan(q, model)));
    }
  }
}

// The request stream: pool query by Zipf popularity, model by share.
class RequestStream {
 public:
  explicit RequestStream(uint64_t seed)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + 41) {
    double total = 0;
    for (size_t r = 0; r < kPoolSize; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kPoolZipfS);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  struct Request {
    size_t query = 0;
    vbr::CostModel model = vbr::CostModel::kM1;
  };

  Request Next() {
    std::uniform_real_distribution<double> u(0, 1);
    Request r;
    r.query = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u(rng_)) - cdf_.begin());
    r.query = std::min(r.query, kPoolSize - 1);
    r.model = u(rng_) < kM2Share ? vbr::CostModel::kM2 : vbr::CostModel::kM1;
    return r;
  }

 private:
  std::mt19937_64 rng_;
  std::vector<double> cdf_;
};

// The client's request source for one phase: draws from `stream` and logs
// each request to *log for the output checks.
std::function<WireRequest(size_t)> Drawer(
    RequestStream* stream, const Setup& setup,
    std::vector<RequestStream::Request>* log) {
  return [stream, &setup, log](size_t) {
    log->push_back(stream->Next());
    const RequestStream::Request& r = log->back();
    return WireRequest{&setup.pool_text[r.query], r.model};
  };
}

// Applies the delta batch every kDeltaEvery sent requests, alternating
// AddViews and RemoveViews, on its own thread.
class DeltaDriver {
 public:
  explicit DeltaDriver(Setup* setup) : setup_(setup) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~DeltaDriver() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  DeltaDriver(const DeltaDriver&) = delete;
  DeltaDriver& operator=(const DeltaDriver&) = delete;

  void OnSent() {
    if (++sent_ % kDeltaEvery != 0) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++pending_;
    }
    cv_.notify_all();
  }

  // Durations of the applied deltas, us. Read after the driver is idle.
  std::vector<double> durations_us() {
    std::lock_guard<std::mutex> lock(mu_);
    return durations_us_;
  }
  // Leaves the catalog without the delta batch.
  void Restore() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0 && !busy_; });
    if (added_) {
      setup_->planner->RemoveViews(setup_->delta_names);
      added_ = false;
    }
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
      if (stop_) return;
      --pending_;
      busy_ = true;
      const bool add = !added_;
      lock.unlock();
      const double t0 = NowSec();
      if (add) {
        setup_->planner->AddViews(setup_->delta, setup_->delta_db);
      } else {
        setup_->planner->RemoveViews(setup_->delta_names);
      }
      const double us = (NowSec() - t0) * 1e6;
      lock.lock();
      added_ = add;
      busy_ = false;
      durations_us_.push_back(us);
      cv_.notify_all();
    }
  }

  Setup* setup_;
  std::atomic<size_t> sent_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;       // guarded by mu_
  bool busy_ = false;        // guarded by mu_
  bool added_ = false;       // guarded by mu_
  bool stop_ = false;        // guarded by mu_
  std::vector<double> durations_us_;  // guarded by mu_
  std::thread thread_;
};

// Checks every request of a phase against the two references and returns
// how many got a correct answer; each other one is a failure.
size_t CheckPhase(const PhaseResult& phase,
                  const std::vector<RequestStream::Request>& requests,
                  const std::vector<PlanOutcome> outcome_a[2],
                  const std::vector<PlanOutcome> outcome_b[2], Outcome* out) {
  size_t ok = 0;
  for (size_t i = 0; i < phase.samples.size(); ++i) {
    const WireSample& s = phase.samples[i];
    const RequestStream::Request& r = requests[i];
    ++out->attempted;
    if (!s.answered) {
      out->Fail("wire_churn: lost");
    } else if (s.status != vbr::net::WireStatus::kOk) {
      out->Fail(std::string("wire_churn: wire status ") +
                vbr::net::WireStatusName(s.status));
    } else {
      const size_t m = ModelIndex(r.model);
      const PlanOutcome got = PlanOutcome::Of(s);
      if (got != outcome_a[m][r.query] && got != outcome_b[m][r.query]) {
        out->Fail("wire_churn: outcome (status " +
                  std::to_string(got.status) + ", cost " +
                  std::to_string(got.cost) +
                  ") matches neither catalog state's reference");
      } else {
        ++ok;
      }
    }
  }
  return ok;
}

// Latency and content of one phase's answered requests, past its first
// `skip` requests (the warm-up).
struct PhaseSummary {
  std::vector<double> latency_ms;
  std::vector<double> costs;  // of the requests that got a plan
  size_t no_plan = 0;
  double throughput_qps = 0;  // correct answers per second
};

PhaseSummary Summarize(const PhaseResult& phase, size_t ok, size_t skip) {
  PhaseSummary summary;
  double last_response = 0;
  for (size_t i = 0; i < phase.samples.size(); ++i) {
    const WireSample& s = phase.samples[i];
    if (!s.answered) continue;
    last_response = std::max(last_response, s.due_s + s.latency_ms / 1e3);
    if (i < skip) continue;
    summary.latency_ms.push_back(s.latency_ms);
    if (s.plan_status == static_cast<uint8_t>(vbr::PlanStatus::kOk)) {
      summary.costs.push_back(static_cast<double>(s.cost));
    } else {
      ++summary.no_plan;
    }
  }
  if (!phase.samples.empty()) {
    const double span = last_response - phase.samples.front().due_s;
    summary.throughput_qps = span > 0 ? ok / span : 0;
  }
  return summary;
}

}  // namespace

Outcome RunWireChurn(const RunOptions& options) {
  MarkClientThread();
  Outcome out;
  std::vector<double> setup_s;
  // Set up several times and report the median; each set-up but the
  // last is torn down (server first) before the next one starts.
  Setup setup;
  const int setup_runs = options.trace ? 1 : kSetupRuns;
  for (int r = 0; r < setup_runs; ++r) {
    Setup candidate = BuildSetup(options.data_seed, &out);
    setup_s.push_back(candidate.total_s);
    if (r + 1 == setup_runs) setup = std::move(candidate);
  }
  if (!out.correct) return out;
  std::vector<PlanOutcome> outcome_b[2];
  ReferenceWithDelta(setup, outcome_b);

  WireClient client;
  std::string error;
  if (!client.Connect(setup.server->binary_port(), &error)) {
    out.Fail("connect: " + error);
    return out;
  }
  RequestStream stream(options.seed);
  uint64_t next_id = 0;

  // Open loop, no deltas: transport latency and generator lateness.
  std::vector<RequestStream::Request> open_requests;
  const PhaseResult open = client.RunPhase(
      options.seconds * kOpenLoopShare, kOpenLoopRate, 0, next_id,
      Drawer(&stream, setup, &open_requests), [](size_t) {}, kGraceS);
  next_id += open.samples.size();
  if (open.transport_error) out.Fail("wire_churn: transport error");
  const size_t open_ok =
      CheckPhase(open, open_requests, setup.outcome_a, outcome_b, &out);
  const PhaseSummary open_summary = Summarize(open, open_ok, kWarmupRequests);
  PrintLatency(open_summary.latency_ms, "wire_churn open loop (no metric)");
  std::vector<double> late;
  for (const WireSample& s : open.samples) late.push_back(s.late_ms);

  // Closed loop with deltas: the measured phase. A traced run traces its
  // first two thirds and keeps the rest untraced, as the baseline of
  // trace.overhead_ratio.
  const double churn_s = options.seconds * (1 - kOpenLoopShare);
  if (options.trace) ResetServerRecords(next_id + kTracedRecords);
  std::vector<RequestStream::Request> churn_requests;
  std::vector<RequestStream::Request> base_requests;
  std::vector<double> delta_us;
  const vbr::PlanCacheCounters cache_before = setup.planner->cache_counters();
  vbr::PlanCacheCounters cache_after;
  const CounterSnapshot counters_before = CounterSnapshot::Take();
  CounterSnapshot counters_after;
  PhaseResult churn;
  PhaseResult base;
  {
    DeltaDriver delta(&setup);
    SetTracing(options.trace);
    churn = client.RunPhase(options.trace ? churn_s * 2 / 3 : churn_s, 0,
                            kWindow, next_id,
                            Drawer(&stream, setup, &churn_requests),
                            [&](size_t) { delta.OnSent(); }, kGraceS);
    SetTracing(false);
    next_id += churn.samples.size();
    counters_after = CounterSnapshot::Take();
    cache_after = setup.planner->cache_counters();
    if (options.trace) {
      base = client.RunPhase(churn_s / 3, 0, kWindow, next_id,
                             Drawer(&stream, setup, &base_requests),
                             [&](size_t) { delta.OnSent(); }, kGraceS);
    }
    delta.Restore();
    delta_us = delta.durations_us();
  }
  if (churn.transport_error || base.transport_error) {
    out.Fail("wire_churn: transport error");
  }
  const size_t churn_ok =
      CheckPhase(churn, churn_requests, setup.outcome_a, outcome_b, &out);
  CheckPhase(base, base_requests, setup.outcome_a, outcome_b, &out);
  const PhaseSummary summary = Summarize(churn, churn_ok, kWarmupRequests);

  if (!options.trace) {
    out.Add("setup_s", Median(setup_s), "s");
    AddLatencyMetrics(&out, summary.latency_ms, "wire_churn");
    out.Add("throughput_qps", summary.throughput_qps, "plans/s");
    out.Add("plan_cost_geomean", GeoMean(summary.costs), "cost");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return out;
  }

  std::fprintf(stderr, "[vbrbench] span tree (traced closed-loop phase):\n%s",
               SpanTreeText().c_str());
  LayerInputs in;
  WireLayer wire;
  double enc = 0, dec = 0, req_bytes = 0, resp_bytes = 0, queue_us = 0;
  double sdec = 0, senc = 0, parse = 0, residual = 0;
  size_t n = 0;
  const std::vector<ServerRecord> records = ServerRecords();
  for (const WireSample& s : churn.samples) {
    if (!s.answered || s.request_id >= records.size()) continue;
    const ServerRecord& rec = records[s.request_id];
    if (!rec.planned) continue;
    ++n;
    enc += s.encode_us;
    dec += s.decode_us;
    req_bytes += s.request_bytes;
    resp_bytes += s.response_bytes;
    queue_us += s.queue_wait_ms * 1e3;
    sdec += rec.decode_us;
    senc += rec.encode_us;
    parse += rec.parse_us;
    in.all.Add(rec.plan);
    residual += s.latency_ms * 1e3 - s.queue_wait_ms * 1e3 -
                rec.plan.total_us[static_cast<size_t>(Fn::kPlan)];
  }
  const double dn = static_cast<double>(std::max<size_t>(n, 1));
  // cq.parse runs on the IO thread before the request is queued, outside
  // the plan span the other layers are read from.
  in.all.self_us[static_cast<size_t>(Fn::kParse)] = parse;
  // Requests race the deltas and two workers, so no prefix of the phase
  // is exactly repeatable: the work counts average over all of it.
  in.requests = n;
  in.window = in.all;
  in.window_requests = n;
  in.containment_checks =
      counters_after.containment_checks - counters_before.containment_checks;
  in.memo_hits = counters_after.memo_hits - counters_before.memo_hits;
  in.memo_misses = counters_after.memo_misses - counters_before.memo_misses;
  // The counter deltas cover every traced request, the spans those with a
  // server record: scale the former to the latter.
  in.containment_checks = static_cast<uint64_t>(
      double(in.containment_checks) * n /
      std::max<size_t>(churn.samples.size(), 1));
  in.cache_hits = cache_after.hits - cache_before.hits;
  in.cache_misses = cache_after.misses - cache_before.misses;
  in.generate_s = setup.generate_s;
  in.materialize_s = setup.materialize_s;
  in.error_rate =
      out.attempted ? double(out.failed) / double(out.attempted) : 0;
  in.latency_samples = summary.latency_ms.size();
  in.no_plan_ratio =
      double(summary.no_plan) / std::max<size_t>(summary.latency_ms.size(), 1);
  in.traced_p50_ms = Median(summary.latency_ms);
  in.untraced_p50_ms = Median(Summarize(base, 0, 0).latency_ms);
  wire.request_encode_us = enc / dn;
  wire.response_decode_us = dec / dn;
  wire.request_decode_us = sdec / dn;
  wire.response_encode_us = senc / dn;
  wire.request_bytes = req_bytes / dn;
  wire.response_bytes = resp_bytes / dn;
  wire.driver_late_ms = Quantile(late, 0.99);
  wire.queue_wait_us = queue_us / dn;
  wire.residual_us = residual / dn;
  wire.delta_us = delta_us.empty()
                      ? 0
                      : std::accumulate(delta_us.begin(), delta_us.end(), 0.0) /
                            delta_us.size();
  wire.delta_invalidated =
      delta_us.empty() ? 0 : double(in.cache_misses) / double(delta_us.size());
  AddLayerMetrics(&out, in, wire);
  return out;
}

}  // namespace vbrbench
