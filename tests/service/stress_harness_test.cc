// Stress harness for the PlanningService (planner/service.h).
//
// Three kinds of pressure, separately and together:
//  * OVERLOAD — more submissions than the bounded queue and worker pool can
//    absorb, driving admission control (queue-full, unmeetable-deadline)
//    and the circuit breaker's brown-out ladder;
//  * INJECTED FAULTS — deterministic kStageAbort faults
//    (common/fault_injection.h) that surface as BudgetKind::kInjected
//    exhaustion: answered once, fed to the breaker;
//  * CONCURRENT RECONFIGURATION — ReplaceViews racing in-flight requests,
//    validating the planner's RCU snapshots end to end.
//
// Every test closes with the service accounting invariants:
//
//   submitted == admitted + rejected
//   admitted  == completed + shed
//
// and every future returned by Submit must be terminal exactly once —
// .get() hangs on a lost request and throws on a double-completed one, so
// the invariant is enforced by construction. Certificates of every kOk
// response are re-verified with the search-free checker.
//
// Determinism: the serial tests (injected fault, ladder walk) run one
// worker, so fault crossings and the breaker trajectory are exact. Tests
// that need the worker held mid-request park it in a blocking trace sink
// (WorkerGate). The multi-threaded overload tests assert invariants only,
// never specific interleavings.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/circuit_breaker.h"
#include "common/fault_injection.h"
#include "common/trace.h"
#include "cq/parser.h"
#include "cq/rename.h"
#include "engine/materialize.h"
#include "planner/planner.h"
#include "planner/service.h"
#include "rewrite/certificate.h"
#include "workload/data_gen.h"
#include "workload/generator.h"

namespace vbr {
namespace {

using ServiceStatus = PlanningService::ServiceStatus;
using RejectReason = PlanningService::RejectReason;

// The KeepGoing site every cost model's pipeline crosses (view-tuple
// generation runs under CoreCover and CoreCoverStar alike).
constexpr char kFaultSite[] = "corecover.view_tuples";

struct ServiceFixture {
  Workload workload;
  Database view_db;
  std::unique_ptr<ViewPlanner> planner;

  explicit ServiceFixture(uint64_t seed, QueryShape shape = QueryShape::kStar,
                          bool minicon_fallback = false) {
    WorkloadConfig wc;
    wc.shape = shape;
    wc.num_query_subgoals = 4;
    wc.num_views = 6;
    wc.seed = seed;
    workload = GenerateWorkload(wc);
    DataConfig dc;
    dc.rows_per_relation = 20;
    dc.domain_size = 6;
    dc.seed = seed + 100;
    const Database base = GenerateBaseData(workload.query, workload.views, dc);
    view_db = MaterializeViews(workload.views, base);
    ViewPlanner::Options options;
    // The harness drives exhaustion through the SERVICE's governor; the
    // MiniCon recovery ladder would turn injected aborts back into plans.
    options.enable_minicon_fallback = minicon_fallback;
    planner = std::make_unique<ViewPlanner>(workload.views, view_db, options);
  }
};

PlanningService::Options SerialServiceOptions() {
  PlanningService::Options options;
  options.num_workers = 1;
  options.max_queue = 8;
  // A (generous) budget so a governor is installed around every planner
  // call — injected faults only fire at governed check sites.
  options.budget.work_limit = uint64_t{1} << 40;
  return options;
}

void ExpectInvariants(const PlanningService::Stats& stats) {
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_EQ(stats.admitted, stats.completed + stats.shed);
  EXPECT_EQ(stats.rejected, stats.rejected_queue_full +
                                stats.rejected_deadline +
                                stats.rejected_overload +
                                stats.rejected_shutdown);
  EXPECT_EQ(stats.queue_depth, 0u);
}

class StressHarnessTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// A trace sink that parks the worker emitting a span until Open(). Set as
// an in-process PlanRequest::trace, it holds the (single) worker mid-request
// while a test shapes the queue.
class WorkerGate : public TraceSink {
 public:
  void OnSpanEnd(TraceEvent) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

// An injected fault is exhaustion like any other: the request is planned
// once, answered kOk carrying the planner's kBudgetExhausted account, and
// counted by the breaker as one failure; the next request plans cleanly.
TEST_F(StressHarnessTest, InjectedFaultIsAnsweredOnceAndFeedsTheBreaker) {
  ServiceFixture fx(7);
  PlanningService service(fx.planner.get(), SerialServiceOptions());

  FaultRegistry::Global().Arm(kFaultSite, FaultKind::kStageAbort, 1);
  const auto faulted = service.Plan(fx.workload.query, CostModel::kM2);
  EXPECT_EQ(faulted.status, ServiceStatus::kOk);
  EXPECT_EQ(faulted.result.status, PlanStatus::kBudgetExhausted);
  EXPECT_EQ(faulted.result.exhaustion.kind, BudgetKind::kInjected);
  EXPECT_EQ(faulted.attempts, 1u);
  EXPECT_DOUBLE_EQ(service.breaker().failure_rate(), 1.0);

  const auto clean = service.Plan(fx.workload.query, CostModel::kM2);
  EXPECT_EQ(clean.status, ServiceStatus::kOk);
  ASSERT_EQ(clean.result.status, PlanStatus::kOk);
  EXPECT_EQ(clean.attempts, 1u);
  EXPECT_TRUE(
      VerifyCertificate(clean.result.choice->certificate, fx.workload.views));
  EXPECT_DOUBLE_EQ(service.breaker().failure_rate(), 0.5);

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(service.service_level(), 0u);
  ExpectInvariants(stats);
}

TEST_F(StressHarnessTest, BreakerWalksTheLadderUpAndRecovers) {
  constexpr size_t kMinSamples = CircuitBreaker::kMinSamples;
  constexpr size_t kProbeInterval = CircuitBreaker::kProbeInterval;
  constexpr uint32_t kReject = PlanningService::kLevelReject;
  ServiceFixture fx(11);
  PlanningService service(fx.planner.get(), SerialServiceOptions());

  // Failure phase: every request's budget dies on an injected fault; the
  // breaker walks 0 -> 1 -> 2 -> 3 -> 4 (reject), kMinSamples outcomes per
  // rung.
  std::vector<uint32_t> levels_seen;
  bool saw_demotion = false;
  size_t failures = 0;
  for (size_t i = 0; i < 4 * kMinSamples * kReject &&
                     service.service_level() < kReject;
       ++i) {
    FaultRegistry::Global().Arm(kFaultSite, FaultKind::kStageAbort, 1);
    const auto response = service.Plan(fx.workload.query, CostModel::kM2);
    ASSERT_EQ(response.status, ServiceStatus::kOk) << "i=" << i;
    ASSERT_EQ(response.result.exhaustion.kind, BudgetKind::kInjected)
        << "i=" << i;
    levels_seen.push_back(response.service_level);
    saw_demotion = saw_demotion || response.model_demoted;
    ++failures;
  }
  EXPECT_EQ(service.service_level(), kReject);
  EXPECT_EQ(failures, kMinSamples * kReject);  // 16 per rung, 4 rungs
  // Each brown-out rung actually served requests on the way up.
  std::vector<uint32_t> expected_levels;
  for (uint32_t level = 0; level < kReject; ++level) {
    expected_levels.insert(expected_levels.end(), kMinSamples, level);
  }
  EXPECT_EQ(levels_seen, expected_levels);
  // Rung 3 is cached-or-M1-only; the exhausted requests cached nothing, so
  // the M2 requests planned there were demoted to M1.
  EXPECT_TRUE(saw_demotion);

  // Open phase: rejections with kOverloaded, except half-open probes
  // (which still fail while the fault persists, keeping the breaker open).
  size_t rejected = 0;
  size_t probe_failures = 0;
  for (size_t i = 0; i < 2 * kProbeInterval; ++i) {
    FaultRegistry::Global().Arm(kFaultSite, FaultKind::kStageAbort, 1);
    const auto response = service.Plan(fx.workload.query, CostModel::kM2);
    if (response.status == ServiceStatus::kRejected) {
      EXPECT_EQ(response.reject_reason, RejectReason::kOverloaded);
      ++rejected;
      FaultRegistry::Global().Disarm(kFaultSite);
    } else {
      EXPECT_EQ(response.status, ServiceStatus::kOk);
      EXPECT_EQ(response.result.status, PlanStatus::kBudgetExhausted);
      ++probe_failures;
    }
  }
  EXPECT_EQ(service.service_level(), kReject);
  // A probe every kProbeInterval-th request: 14 rejected, 2 probes.
  EXPECT_EQ(rejected, 2 * (kProbeInterval - 1));
  EXPECT_EQ(probe_failures, 2u);

  // Recovery phase: the fault clears; probe successes walk the breaker all
  // the way back down to full service. At the reject level only one
  // request in kProbeInterval is served, so the cap is generous.
  FaultRegistry::Global().Reset();
  size_t recovery_requests = 0;
  for (size_t i = 0; i < kProbeInterval * CircuitBreaker::kWindow * kReject &&
                     service.service_level() > 0;
       ++i) {
    const auto response = service.Plan(fx.workload.query, CostModel::kM2);
    if (response.status != ServiceStatus::kRejected) {
      ASSERT_EQ(response.status, ServiceStatus::kOk);
      ASSERT_EQ(response.result.status, PlanStatus::kOk);
      ++recovery_requests;
    }
  }
  EXPECT_EQ(service.service_level(), 0u);
  EXPECT_GE(recovery_requests, kMinSamples * kReject);

  const auto stats = service.stats();
  EXPECT_GE(stats.breaker_trips, kReject);
  EXPECT_GE(stats.breaker_recoveries, kReject);
  EXPECT_GE(stats.probes, probe_failures);
  // The open phase rejected exactly 14 (asserted above); recovery rejects
  // more before the probes close the breaker.
  EXPECT_GE(stats.rejected_overload, rejected);
  EXPECT_GE(stats.model_demotions, 1u);
  ExpectInvariants(stats);

  // Back at full service, a fresh request plans normally (and now hits the
  // plan cache warmed during recovery).
  const auto healthy = service.Plan(fx.workload.query, CostModel::kM2);
  ASSERT_EQ(healthy.status, ServiceStatus::kOk);
  EXPECT_EQ(healthy.service_level, 0u);
  ASSERT_TRUE(healthy.result.ok());
  EXPECT_TRUE(
      VerifyCertificate(healthy.result.choice->certificate, fx.workload.views));
}

TEST_F(StressHarnessTest, QueueBoundRejectsAndShutdownShedsThePending) {
  ServiceFixture fx(13);
  PlanningService::Options options = SerialServiceOptions();
  options.max_queue = 3;
  PlanningService service(fx.planner.get(), options);

  // Park the single worker mid-request (inside its trace sink).
  WorkerGate gate;
  PlanningService::PlanRequest blocker;
  blocker.query = fx.workload.query;
  blocker.options.model = CostModel::kM2;
  blocker.trace = &gate;
  auto blocker_future = service.Submit(std::move(blocker));
  gate.AwaitEntered();

  // Fill the queue to its bound; the next submission is rejected.
  std::vector<std::future<PlanningService::PlanResponse>> queued;
  for (size_t i = 0; i < options.max_queue; ++i) {
    PlanningService::PlanRequest request;
    request.query = fx.workload.query;
    queued.push_back(service.Submit(std::move(request)));
  }
  {
    PlanningService::PlanRequest overflow;
    overflow.query = fx.workload.query;
    const auto response = service.Submit(std::move(overflow)).get();
    EXPECT_EQ(response.status, ServiceStatus::kRejected);
    EXPECT_EQ(response.reject_reason, RejectReason::kQueueFull);
  }

  // Begin a shedding shutdown on a side thread, wait until it has closed
  // admission (new submissions bounce with kShuttingDown), then release the
  // worker: it finishes the blocker, sheds the backlog, and exits.
  std::thread shutdown_thread(
      [&service] { service.Shutdown(PlanningService::DrainMode::kShedPending); });
  for (;;) {
    PlanningService::PlanRequest probe_request;
    probe_request.query = fx.workload.query;
    const auto response = service.Submit(std::move(probe_request)).get();
    EXPECT_EQ(response.status, ServiceStatus::kRejected);
    if (response.reject_reason == RejectReason::kShuttingDown) break;
    EXPECT_EQ(response.reject_reason, RejectReason::kQueueFull);
  }
  gate.Open();
  shutdown_thread.join();

  // The in-flight blocker completed; every queued request was shed, none
  // lost.
  const auto blocker_response = blocker_future.get();
  EXPECT_EQ(blocker_response.status, ServiceStatus::kOk);
  EXPECT_EQ(blocker_response.result.status, PlanStatus::kOk);
  EXPECT_EQ(blocker_response.attempts, 1u);
  for (auto& f : queued) {
    const auto response = f.get();
    EXPECT_EQ(response.status, ServiceStatus::kShed);
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.admitted, 1u + options.max_queue);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed, options.max_queue);
  EXPECT_GE(stats.rejected_queue_full, 1u);
  EXPECT_GE(stats.rejected_shutdown, 1u);
  ExpectInvariants(stats);
}

TEST_F(StressHarnessTest, DeadlinesGateAdmissionAndShedStaleQueueEntries) {
  ServiceFixture fx(17);
  PlanningService::Options options = SerialServiceOptions();
  // Pin the admission estimate so the unmeetable-deadline check is exact.
  options.assumed_service_ms = 50.0;
  PlanningService service(fx.planner.get(), options);

  // A deadline below one (estimated) service time is provably unmeetable.
  {
    PlanningService::PlanRequest request;
    request.query = fx.workload.query;
    request.options.deadline_ms = 10.0;
    const auto response = service.Submit(std::move(request)).get();
    EXPECT_EQ(response.status, ServiceStatus::kRejected);
    EXPECT_EQ(response.reject_reason, RejectReason::kDeadlineUnmeetable);
  }

  // Park the worker, then queue a request whose (meetable-at-admission)
  // deadline expires while it waits: it must be shed at dequeue, not
  // planned.
  WorkerGate gate;
  PlanningService::PlanRequest blocker;
  blocker.query = fx.workload.query;
  blocker.trace = &gate;
  auto blocker_future = service.Submit(std::move(blocker));
  gate.AwaitEntered();

  PlanningService::PlanRequest stale;
  stale.query = fx.workload.query;
  stale.options.deadline_ms = 60.0;  // one estimated service time: admitted
  auto stale_future = service.Submit(std::move(stale));

  // Let (more than) the deadline elapse while the request sits queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  gate.Open();

  const auto blocker_response = blocker_future.get();
  EXPECT_EQ(blocker_response.status, ServiceStatus::kOk);
  const auto stale_response = stale_future.get();
  EXPECT_EQ(stale_response.status, ServiceStatus::kShed);
  EXPECT_NE(stale_response.error.find("deadline"), std::string::npos);

  service.Shutdown();
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.shed, 1u);
  ExpectInvariants(stats);
}

TEST_F(StressHarnessTest, TracingEmitsServiceSpansAtFullService) {
  ServiceFixture fx(19);
  PlanningService service(fx.planner.get(), SerialServiceOptions());

  MemoryTraceSink sink;
  PlanningService::PlanRequest request;
  request.query = fx.workload.query;
  request.options.model = CostModel::kM2;
  request.trace = &sink;
  const auto response = service.Submit(std::move(request)).get();
  ASSERT_EQ(response.status, ServiceStatus::kOk);
  EXPECT_EQ(response.service_level, 0u);

  bool saw_service_span = false;
  bool saw_plan_child = false;
  uint64_t service_span_id = 0;
  for (const TraceEvent& event : sink.spans()) {
    if (event.name == "service.request") {
      saw_service_span = true;
      service_span_id = event.id;
    }
  }
  for (const TraceEvent& event : sink.spans()) {
    if (event.name == "plan" && event.parent_id == service_span_id) {
      saw_plan_child = true;
    }
  }
  EXPECT_TRUE(saw_service_span);
  EXPECT_TRUE(saw_plan_child);
}

// Section-7-style mixed overload: chain and star queries (with renamed
// duplicates exercising the cache), injected faults, a few hopeless
// deadlines, and more submitters than workers. Asserts invariants and
// certificate validity — never specific interleavings.
TEST_F(StressHarnessTest, MixedOverloadKeepsAccountingExact) {
  ServiceFixture fx(23, QueryShape::kChain, /*minicon_fallback=*/true);

  // A query pool over the SAME view set: the fixture query, renamed
  // variants (cache hits), a star-shaped stranger (usually kNoRewriting),
  // and an unknown-predicate query.
  std::vector<ConjunctiveQuery> pool;
  pool.push_back(fx.workload.query);
  for (int i = 0; i < 3; ++i) {
    Substitution renaming;
    pool.push_back(RenameVariablesApart(fx.workload.query,
                                        "r" + std::to_string(i), &renaming));
  }
  WorkloadConfig stranger;
  stranger.shape = QueryShape::kStar;
  stranger.num_query_subgoals = 3;
  stranger.seed = 5;
  pool.push_back(GenerateWorkload(stranger).query);
  pool.push_back(MustParseQuery("q(X) :- nosuch(X,Y)"));

  PlanningService::Options options;
  options.num_workers = 2;
  options.max_queue = 4;  // small enough that submitters outrun it
  options.budget.work_limit = uint64_t{1} << 40;
  PlanningService service(fx.planner.get(), options);

  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 40;
  std::vector<std::vector<std::future<PlanningService::PlanResponse>>>
      futures(kSubmitters);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        const int pick = (t * kPerSubmitter + i) % static_cast<int>(pool.size());
        PlanningService::PlanRequest request;
        request.query = pool[static_cast<size_t>(pick)];
        request.options.model = (i % 2 == 0) ? CostModel::kM1 : CostModel::kM2;
        if (i % 10 == 9) request.options.deadline_ms = 0.0001;  // hopeless deadline
        futures[static_cast<size_t>(t)].push_back(
            service.Submit(std::move(request)));
        if (i % 7 == 3) {
          // Sprinkle injected faults; crossings are nondeterministic under
          // concurrency, so only the invariants are asserted.
          FaultRegistry::Global().Arm(kFaultSite, FaultKind::kStageAbort, 2);
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  size_t ok = 0, rejected = 0, shed = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      const auto response = f.get();  // hangs if any request were lost
      switch (response.status) {
        case ServiceStatus::kOk:
          ++ok;
          if (response.result.ok()) {
            EXPECT_TRUE(VerifyCertificate(response.result.choice->certificate,
                                          fx.workload.views));
          }
          break;
        case ServiceStatus::kRejected:
          ++rejected;
          break;
        case ServiceStatus::kShed:
          ++shed;
          break;
      }
    }
  }
  service.Shutdown();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.shed, shed);
  ExpectInvariants(stats);
  EXPECT_GE(ok, 1u);
}

// ReplaceViews races in-flight service traffic. The planner's RCU snapshots
// must keep every request on ONE view generation; certificates are verified
// against the SUPERSET view set (both generations' definitions), which is
// sound because a certificate only references the views its rewriting uses.
TEST_F(StressHarnessTest, ConcurrentReplaceViewsKeepsRequestsConsistent) {
  ServiceFixture fx(29, QueryShape::kChain, /*minicon_fallback=*/true);
  const ViewSet base_views = fx.workload.views;
  ViewSet super_views = base_views;
  for (const View& v : MustParseProgram("vextra(A,B) :- p0(A,B)")) {
    super_views.push_back(v);
  }
  Database super_db = fx.view_db;  // vextra's instance stays empty

  PlanningService::Options options;
  options.num_workers = 2;
  options.max_queue = 16;
  options.budget.work_limit = uint64_t{1} << 40;
  PlanningService service(fx.planner.get(), options);

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    for (int i = 0; i < 25; ++i) {
      if (i % 2 == 0) {
        fx.planner->ReplaceViews(super_views, super_db);
      } else {
        fx.planner->ReplaceViews(base_views, fx.view_db);
      }
    }
    stop.store(true);
  });

  std::vector<std::future<PlanningService::PlanResponse>> futures;
  std::vector<std::thread> submitters;
  std::mutex futures_mu;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        PlanningService::PlanRequest request;
        Substitution renaming;
        request.query = RenameVariablesApart(
            fx.workload.query, "s" + std::to_string(t * 100 + i), &renaming);
        request.options.model = CostModel::kM2;
        auto f = service.Submit(std::move(request));
        std::lock_guard<std::mutex> lock(futures_mu);
        futures.push_back(std::move(f));
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  swapper.join();

  size_t ok = 0;
  for (auto& f : futures) {
    const auto response = f.get();
    if (response.status == ServiceStatus::kOk && response.result.ok()) {
      ++ok;
      EXPECT_TRUE(VerifyCertificate(response.result.choice->certificate,
                                    super_views));
    }
  }
  service.Shutdown();
  EXPECT_GE(ok, 1u);
  ExpectInvariants(service.stats());

  // The planner is coherent after the dust settles: a fresh plan against
  // the final view set works and its epoch-keyed cache serves it back.
  const auto result = fx.planner->Plan(fx.workload.query, CostModel::kM2);
  ASSERT_TRUE(result.ok());
  const auto again = fx.planner->Plan(fx.workload.query, CostModel::kM2);
  EXPECT_TRUE(again.cache_hit);
}

// Destruction without an explicit Shutdown drains cleanly.
TEST_F(StressHarnessTest, DestructorDrainsOutstandingRequests) {
  ServiceFixture fx(31);
  std::vector<std::future<PlanningService::PlanResponse>> futures;
  {
    PlanningService::Options options = SerialServiceOptions();
    PlanningService service(fx.planner.get(), options);
    for (int i = 0; i < 5; ++i) {
      PlanningService::PlanRequest request;
      request.query = fx.workload.query;
      futures.push_back(service.Submit(std::move(request)));
    }
  }  // ~PlanningService == Shutdown(kDrain)
  for (auto& f : futures) {
    const auto response = f.get();
    EXPECT_EQ(response.status, ServiceStatus::kOk);
  }
}

}  // namespace
}  // namespace vbr
