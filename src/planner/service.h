#ifndef VBR_PLANNER_SERVICE_H_
#define VBR_PLANNER_SERVICE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/circuit_breaker.h"
#include "common/timer.h"
#include "common/trace.h"
#include "planner/planner.h"

namespace vbr {
class RequestLogWriter;  // planner/snapshot.h
}

namespace vbr {

// Overload-safe serving layer over ViewPlanner (see DESIGN.md "Serving and
// overload").
//
// The planner itself is a library call: it plans every query it is handed,
// however expensive, however many arrive at once. A service cannot afford
// that — under overload, planning everything means finishing nothing on
// time. The PlanningService therefore wraps the planner behind
//
//  * a bounded, deadline-aware request queue with admission control
//    (requests are REJECTED up front when the queue is full, when their
//    deadline provably cannot be met at the current backlog, or when the
//    circuit breaker has opened),
//  * a fixed pool of worker threads (the concurrency limiter),
//  * per-request resource budgets derived from the request deadline and
//    installed as a ResourceGovernor around the planner call, which runs
//    exactly once per admitted request,
//  * a multi-level circuit breaker (common/circuit_breaker.h) that walks a
//    brown-out ladder under sustained failure: full planning -> shed
//    tracing -> shrunken budgets -> cached-or-M1-only -> reject (the
//    ServiceLevel rungs below), and
//  * graceful drain on shutdown: every admitted request reaches a terminal
//    status; nothing is lost or completed twice.
//
// Accounting invariant (asserted by tests/service/stress_harness_test.cc):
//
//   submitted == admitted + rejected
//   admitted  == completed + shed
//
// `rejected` requests never entered the queue; `shed` requests were
// admitted but dropped without planning (queue-deadline expiry, shutdown
// shedding); everything else completes with the planner's own PlanResult
// (including kBudgetExhausted and kNoRewriting — those are answers, not
// service failures, though exhaustion does feed the breaker). A budget
// that dies on an injected fault (BudgetKind::kInjected) is exhaustion like
// any other: it is not retried here; clients that want retries over the
// wire use net/resilient_client.h.
//
// Determinism: the service's one nondeterministic input is the wall-clock
// deadline. Deadlines are optional, and the admission estimate can be
// pinned via `assumed_service_ms`; the breaker is clock- and RNG-free by
// construction.
class PlanningService {
 public:
  // Service-level disposition of one request. The planner-level outcome
  // (PlanStatus) lives inside PlanResponse::result and is populated exactly
  // when status == kOk.
  enum class ServiceStatus {
    // The planner ran and produced a result (any PlanStatus).
    kOk = 0,
    // Not admitted; reject_reason says why. The request was never queued.
    kRejected,
    // Admitted, then dropped without planning: its deadline expired while
    // queued, or shutdown shed the backlog.
    kShed,
  };

  enum class RejectReason {
    kNone = 0,
    // The bounded queue is at capacity.
    kQueueFull,
    // The request's deadline cannot be met given the current backlog and
    // the observed per-request service time.
    kDeadlineUnmeetable,
    // The circuit breaker is at the reject level (and this request was not
    // selected as a half-open probe).
    kOverloaded,
    // Shutdown() has begun; no new work is accepted.
    kShuttingDown,
  };

  // The brown-out ladder, one rung per circuit-breaker level. Each rung
  // keeps the degradations of the rungs below it.
  enum ServiceLevel : uint32_t {
    // Full planning.
    kLevelFull = 0,
    // Trace spans are shed (PlanRequest::trace is ignored).
    kLevelShedTracing = 1,
    // The governor's work limit is tightened to a shrunken budget.
    kLevelShrunkenBudget = 2,
    // Plan-cache hits are answered without any rewriting search; cold
    // requests are demoted to M1, the instance-independent model with the
    // cheapest costing loop.
    kLevelCachedOrM1 = 3,
    // Admission rejects every request but the breaker's half-open probes,
    // which are served at kLevelCachedOrM1.
    kLevelReject = 4,
  };
  static_assert(kLevelReject == CircuitBreaker::kRejectLevel,
                "one breaker level per brown-out rung");

  static const char* ServiceStatusName(ServiceStatus status);
  static const char* RejectReasonName(RejectReason reason);

  struct PlanRequest {
    ConjunctiveQuery query;
    // The transport-neutral request options (planner/request_options.h):
    // cost model, wall-clock deadline measured from Submit() (feeds the
    // admission estimate, the queue-expiry check, and the per-request
    // governor), and the request's own work/memory budget. Budget fields
    // merge STRICTER-WINS with the service-wide Options::budget cap, so a
    // client can narrow but never widen what the operator configured.
    PlanRequestOptions options;
    // Optional trace sink for this request's span tree. Shed (ignored) at
    // kLevelShedTracing and above.
    TraceSink* trace = nullptr;
  };

  struct PlanResponse {
    ServiceStatus status = ServiceStatus::kRejected;
    RejectReason reject_reason = RejectReason::kNone;
    // The planner's outcome; meaningful only when status == kOk.
    ViewPlanner::PlanResult result;
    // 1 when the request reached ViewPlanner::Plan; 0 when it was
    // rejected, shed, or answered by the cached-or-M1-only rung's cache.
    uint32_t attempts = 0;
    // Brown-out rung the request was served at (a ServiceLevel below
    // kLevelReject).
    uint32_t service_level = 0;
    // True when the cached-or-M1-only rung answered from the plan cache
    // without any rewriting search.
    bool served_from_cache_only = false;
    // True when the requested cost model was demoted to M1 by the ladder.
    bool model_demoted = false;
    // Milliseconds spent queued before a worker picked the request up.
    double queue_wait_ms = 0;
    std::string error;

    bool ok() const { return status == ServiceStatus::kOk; }

    // One JSON object in the Explain/PlanResult dialect, self-describing
    // via ServiceStatusName / RejectReasonName:
    //   {"service_status":"ok","reject_reason":"none","attempts":1,
    //    "service_level":0,"served_from_cache_only":false,
    //    "model_demoted":false,"queue_wait_ms":0.12,"error":"",
    //    "result":{...PlanResult::ToJson...}}
    // `result` is null unless service_status == "ok".
    std::string ToJson() const;
  };

  struct Options {
    // Worker threads (the concurrency limit). At least 1.
    size_t num_workers = 2;
    // Bounded queue capacity; submissions beyond it are rejected.
    size_t max_queue = 64;
    // Admission-time estimate of one request's service time, used for the
    // unmeetable-deadline check. 0 = use the live EWMA of observed service
    // times (the check is skipped until one completes); > 0 pins the
    // estimate, which tests use for deterministic admission decisions.
    double assumed_service_ms = 0;
    // Service-wide budget CAP installed (as a ResourceGovernor) around
    // planner calls; unlimited by default. Each request's own
    // PlanRequestOptions budget merges into this stricter-wins, and a
    // request deadline additionally tightens deadline_ms to the time the
    // request has left at dequeue.
    ResourceLimits budget;
    // When set, every submission (admitted or not) appends one VBIN
    // request record — query + its own PlanRequestOptions, pre-merge — to
    // this log (planner/snapshot.h), giving a replayable trace of the
    // live stream (`vbr_cli --replay <log>`). Appends are lock-protected
    // and never fail the request path. Wire traffic is covered too: the
    // PlanServer submits through this service.
    std::shared_ptr<RequestLogWriter> request_log;
  };

  // Cumulative service counters (monotone; snapshot under one lock, so the
  // invariants above hold at every observation point once the queue is
  // idle).
  struct Stats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t rejected = 0;
    uint64_t rejected_queue_full = 0;
    uint64_t rejected_deadline = 0;
    uint64_t rejected_overload = 0;
    uint64_t rejected_shutdown = 0;
    uint64_t probes = 0;
    uint64_t deadline_misses = 0;  // completed, but past their deadline
    uint64_t cache_only_hits = 0;
    uint64_t model_demotions = 0;
    size_t queue_depth = 0;
    uint32_t breaker_level = 0;
    uint64_t breaker_trips = 0;
    uint64_t breaker_recoveries = 0;
    double service_time_estimate_ms = 0;

    std::string ToString() const;
    // The same counters as one JSON object ({"submitted":N,...}), used by
    // the server's /statz endpoint and the loadgen accounting check.
    std::string ToJson() const;
  };

  enum class DrainMode {
    // Finish every queued request before stopping (default, destructor).
    kDrain = 0,
    // Complete queued requests as kShed without planning them.
    kShedPending,
  };

  // `planner` must outlive the service. The service starts its workers
  // immediately and accepts submissions until Shutdown().
  PlanningService(const ViewPlanner* planner, Options options);
  ~PlanningService();

  PlanningService(const PlanningService&) = delete;
  PlanningService& operator=(const PlanningService&) = delete;

  // Submits one request: `done` is invoked exactly once with the terminal
  // PlanResponse, from a worker thread — or from the CALLING thread when
  // the request is rejected at admission. The callback must not block and
  // must be safe to run after the caller has moved on (capture shared
  // state by shared_ptr). Thread-safe.
  void SubmitWithCallback(PlanRequest request,
                          std::function<void(PlanResponse)> done);

  // Future-style SubmitWithCallback: the returned future becomes ready
  // exactly once, with the terminal PlanResponse — rejections resolve it
  // immediately. Thread-safe.
  std::future<PlanResponse> Submit(PlanRequest request);

  // Blocking convenience: Submit + wait.
  PlanResponse Plan(PlanRequest request);
  PlanResponse Plan(ConjunctiveQuery query, CostModel model);

  // Stops the service: no new submissions are admitted, queued requests are
  // drained or shed per `mode`, and the workers are joined. Idempotent;
  // concurrent callers all block until the stop completes. After Shutdown,
  // every future ever returned by Submit is ready.
  void Shutdown(DrainMode mode = DrainMode::kDrain);

  Stats stats() const;
  const CircuitBreaker& breaker() const { return breaker_; }
  uint32_t service_level() const { return breaker_.level(); }
  const ViewPlanner& planner() const { return *planner_; }
  // The service-wide budget cap (Options::budget).
  const ResourceLimits& budget() const { return options_.budget; }

 private:
  struct Request {
    PlanRequest request;
    // The completion channel, invoked exactly once.
    std::function<void(PlanResponse)> done;
    Timer queued;       // started at admission
    bool probe = false; // admitted as a half-open breaker probe
  };

  void WorkerLoop();
  // Plans one admitted request end to end (ladder, budget) and completes
  // it. Called on a worker thread.
  void Serve(Request& request);
  // Resolves `request` as kShed with `why`, updating accounting.
  void Shed(Request& request, const std::string& why, bool record_failure);
  // The brown-out rung for a request about to be planned.
  ServiceLevel EffectiveLevel() const;
  // The governor limits for planning at `level`: the service-wide cap
  // tightened by the request's own budget (stricter-wins) and, when the
  // request has a deadline, by the `remaining_ms` it has left (0 = none).
  ResourceLimits PlanLimits(ServiceLevel level, double remaining_ms,
                            const PlanRequestOptions& request) const;

  const ViewPlanner* const planner_;
  const Options options_;
  CircuitBreaker breaker_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Request>> queue_;  // guarded by mu_
  bool stopping_ = false;                       // guarded by mu_
  DrainMode drain_mode_ = DrainMode::kDrain;    // guarded by mu_
  bool joined_ = false;                         // guarded by mu_
  Stats stats_;                                 // guarded by mu_
  double ewma_service_ms_ = 0;                  // guarded by mu_
  bool ewma_valid_ = false;                     // guarded by mu_

  std::mutex join_mu_;  // serializes the join in Shutdown
  std::vector<std::thread> workers_;
};

}  // namespace vbr

#endif  // VBR_PLANNER_SERVICE_H_
