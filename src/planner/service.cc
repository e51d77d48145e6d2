#include "planner/service.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "common/metrics.h"
#include "planner/snapshot.h"

namespace vbr {

namespace {

// The work-unit limit of the shrunken budget at kLevelShrunkenBudget and
// above, merged stricter-wins into the governor's limits.
constexpr uint64_t kBrownoutWorkLimit = 50'000;

// The brown-out ladder's service-time instruments, resolved once.
struct ServiceMetrics {
  Counter* submitted;
  Counter* admitted;
  Counter* rejected;
  Counter* completed;
  Counter* shed;
  Counter* probes;
  Counter* deadline_misses;
  Counter* cache_only_hits;
  Counter* model_demotions;
  Histogram* queue_wait_us;
  Histogram* serve_us;

  static const ServiceMetrics& Get() {
    static const ServiceMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      ServiceMetrics m;
      m.submitted = registry.GetCounter("service.submitted");
      m.admitted = registry.GetCounter("service.admitted");
      m.rejected = registry.GetCounter("service.rejected");
      m.completed = registry.GetCounter("service.completed");
      m.shed = registry.GetCounter("service.shed");
      m.probes = registry.GetCounter("service.probes");
      m.deadline_misses = registry.GetCounter("service.deadline_misses");
      m.cache_only_hits = registry.GetCounter("service.cache_only_hits");
      m.model_demotions = registry.GetCounter("service.model_demotions");
      m.queue_wait_us = registry.GetHistogram("service.queue_wait_us");
      m.serve_us = registry.GetHistogram("service.serve_us");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

const char* PlanningService::ServiceStatusName(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::kOk:
      return "ok";
    case ServiceStatus::kRejected:
      return "rejected";
    case ServiceStatus::kShed:
      return "shed";
  }
  return "unknown";
}

const char* PlanningService::RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kDeadlineUnmeetable:
      return "deadline_unmeetable";
    case RejectReason::kOverloaded:
      return "overloaded";
    case RejectReason::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

std::string PlanningService::Stats::ToString() const {
  std::ostringstream out;
  out << "service.submitted " << submitted << "\n"
      << "service.admitted " << admitted << "\n"
      << "service.completed " << completed << "\n"
      << "service.shed " << shed << "\n"
      << "service.rejected " << rejected << "\n"
      << "service.rejected_queue_full " << rejected_queue_full << "\n"
      << "service.rejected_deadline " << rejected_deadline << "\n"
      << "service.rejected_overload " << rejected_overload << "\n"
      << "service.rejected_shutdown " << rejected_shutdown << "\n"
      << "service.probes " << probes << "\n"
      << "service.deadline_misses " << deadline_misses << "\n"
      << "service.cache_only_hits " << cache_only_hits << "\n"
      << "service.model_demotions " << model_demotions << "\n"
      << "service.queue_depth " << queue_depth << "\n"
      << "service.breaker_level " << breaker_level << "\n"
      << "service.breaker_trips " << breaker_trips << "\n"
      << "service.breaker_recoveries " << breaker_recoveries << "\n"
      << "service.service_time_estimate_ms " << service_time_estimate_ms
      << "\n";
  return out.str();
}

std::string PlanningService::Stats::ToJson() const {
  std::ostringstream out;
  out << "{\"submitted\":" << submitted << ",\"admitted\":" << admitted
      << ",\"completed\":" << completed << ",\"shed\":" << shed
      << ",\"rejected\":" << rejected
      << ",\"rejected_queue_full\":" << rejected_queue_full
      << ",\"rejected_deadline\":" << rejected_deadline
      << ",\"rejected_overload\":" << rejected_overload
      << ",\"rejected_shutdown\":" << rejected_shutdown
      << ",\"probes\":" << probes
      << ",\"deadline_misses\":" << deadline_misses
      << ",\"cache_only_hits\":" << cache_only_hits
      << ",\"model_demotions\":" << model_demotions
      << ",\"queue_depth\":" << queue_depth
      << ",\"breaker_level\":" << breaker_level
      << ",\"breaker_trips\":" << breaker_trips
      << ",\"breaker_recoveries\":" << breaker_recoveries
      << ",\"service_time_estimate_ms\":" << service_time_estimate_ms << "}";
  return out.str();
}

std::string PlanningService::PlanResponse::ToJson() const {
  std::string s = "{";
  s += "\"service_status\":\"" + std::string(ServiceStatusName(status)) + "\"";
  s += ",\"reject_reason\":\"" + std::string(RejectReasonName(reject_reason)) +
       "\"";
  s += ",\"attempts\":" + std::to_string(attempts);
  s += ",\"service_level\":" + std::to_string(service_level);
  s += ",\"served_from_cache_only\":" +
       std::string(served_from_cache_only ? "true" : "false");
  s += ",\"model_demoted\":" + std::string(model_demoted ? "true" : "false");
  s += ",\"queue_wait_ms\":" + std::to_string(queue_wait_ms);
  s += ",\"error\":\"" + JsonEscape(error) + "\"";
  s += ",\"result\":";
  s += status == ServiceStatus::kOk ? result.ToJson() : "null";
  s += "}";
  return s;
}

PlanningService::PlanningService(const ViewPlanner* planner, Options options)
    : planner_(planner),
      options_(std::move(options)) {
  VBR_CHECK_MSG(planner_ != nullptr, "service needs a planner");
  VBR_CHECK_MSG(options_.num_workers >= 1, "service needs a worker");
  VBR_CHECK_MSG(options_.max_queue >= 1, "service needs a queue slot");
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

PlanningService::~PlanningService() { Shutdown(DrainMode::kDrain); }

std::future<PlanningService::PlanResponse> PlanningService::Submit(
    PlanRequest request) {
  auto promise = std::make_shared<std::promise<PlanResponse>>();
  std::future<PlanResponse> future = promise->get_future();
  SubmitWithCallback(std::move(request), [promise](PlanResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

void PlanningService::SubmitWithCallback(
    PlanRequest request, std::function<void(PlanResponse)> done) {
  VBR_CHECK_MSG(done != nullptr, "SubmitWithCallback needs a callback");
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  metrics.submitted->Increment();
  if (options_.request_log != nullptr) {
    // Record the request's OWN options, pre-merge, so a replay through a
    // differently-configured service still submits what the client asked.
    options_.request_log->Append(request.query, request.options);
  }
  RejectReason reject = RejectReason::kNone;
  bool probe = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (stopping_) {
      reject = RejectReason::kShuttingDown;
    } else {
      switch (breaker_.Admit()) {
        case CircuitBreaker::Admission::kAdmit:
          break;
        case CircuitBreaker::Admission::kProbe:
          probe = true;
          break;
        case CircuitBreaker::Admission::kReject:
          reject = RejectReason::kOverloaded;
          break;
      }
    }
    if (reject == RejectReason::kNone && request.options.deadline_ms > 0) {
      // Provably-unmeetable deadline: with `queue_depth` requests ahead and
      // num_workers servers, this request waits roughly
      // ceil(depth / workers) service times before its own begins.
      const double estimate = options_.assumed_service_ms > 0
                                  ? options_.assumed_service_ms
                                  : (ewma_valid_ ? ewma_service_ms_ : 0);
      if (estimate > 0) {
        const double ahead = static_cast<double>(
            queue_.size() / options_.num_workers + 1);
        if (ahead * estimate > request.options.deadline_ms) {
          reject = RejectReason::kDeadlineUnmeetable;
        }
      }
    }
    if (reject == RejectReason::kNone && queue_.size() >= options_.max_queue) {
      reject = RejectReason::kQueueFull;
    }

    if (reject == RejectReason::kNone) {
      ++stats_.admitted;
      if (probe) ++stats_.probes;
      auto queued = std::make_unique<Request>();
      queued->request = std::move(request);
      queued->done = std::move(done);
      queued->probe = probe;
      queue_.push_back(std::move(queued));
      VBR_CHECK(queue_.size() <= options_.max_queue);
      metrics.admitted->Increment();
      if (probe) metrics.probes->Increment();
      cv_.notify_one();
      return;
    }

    ++stats_.rejected;
    switch (reject) {
      case RejectReason::kQueueFull:
        ++stats_.rejected_queue_full;
        break;
      case RejectReason::kDeadlineUnmeetable:
        ++stats_.rejected_deadline;
        break;
      case RejectReason::kOverloaded:
        ++stats_.rejected_overload;
        break;
      case RejectReason::kShuttingDown:
        ++stats_.rejected_shutdown;
        break;
      case RejectReason::kNone:
        break;
    }
  }
  metrics.rejected->Increment();
  // Rejections are NOT recorded in the breaker: a breaker fed by its own
  // rejections can never observe recovery.
  PlanResponse response;
  response.status = ServiceStatus::kRejected;
  response.reject_reason = reject;
  response.error = RejectReasonName(reject);
  // Rejected submissions complete inline on the caller's thread.
  done(std::move(response));
}

PlanningService::PlanResponse PlanningService::Plan(PlanRequest request) {
  return Submit(std::move(request)).get();
}

PlanningService::PlanResponse PlanningService::Plan(ConjunctiveQuery query,
                                                    CostModel model) {
  PlanRequest request;
  request.query = std::move(query);
  request.options.model = model;
  return Plan(std::move(request));
}

void PlanningService::WorkerLoop() {
  for (;;) {
    std::unique_ptr<Request> request;
    bool shed_pending = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      request = std::move(queue_.front());
      queue_.pop_front();
      shed_pending = stopping_ && drain_mode_ == DrainMode::kShedPending;
    }
    // Every dequeued request records its queue wait, whatever its fate.
    ServiceMetrics::Get().queue_wait_us->Record(
        static_cast<uint64_t>(request->queued.ElapsedMillis() * 1000.0));
    if (shed_pending) {
      // Shutdown policy, not a health signal: do not feed the breaker.
      Shed(*request, "shutdown shed the pending queue",
           /*record_failure=*/false);
    } else {
      Serve(*request);
    }
  }
}

PlanningService::ServiceLevel PlanningService::EffectiveLevel() const {
  // Requests that reach a worker were admitted (possibly as probes), so the
  // reject rung never executes; clamp to the rung below it.
  return static_cast<ServiceLevel>(
      std::min<uint32_t>(breaker_.level(), kLevelCachedOrM1));
}

ResourceLimits PlanningService::PlanLimits(
    ServiceLevel level, double remaining_ms,
    const PlanRequestOptions& request) const {
  // Service-wide cap tightened by the request's own budget, whose deadline
  // is the time it has left: a client can narrow its request but never
  // widen the operator's limits. The shrunken-budget rung tightens further.
  ResourceLimits request_limits = request.limits();
  request_limits.deadline_ms = remaining_ms;
  ResourceLimits limits = options_.budget.StricterOf(request_limits);
  if (level >= kLevelShrunkenBudget) {
    ResourceLimits shrunken;
    shrunken.work_limit = kBrownoutWorkLimit;
    limits = limits.StricterOf(shrunken);
  }
  return limits;
}

void PlanningService::Shed(Request& request, const std::string& why,
                           bool record_failure) {
  PlanResponse response;
  response.status = ServiceStatus::kShed;
  response.queue_wait_ms = request.queued.ElapsedMillis();
  response.error = why;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shed;
  }
  ServiceMetrics::Get().shed->Increment();
  if (record_failure) breaker_.RecordFailure();
  request.done(std::move(response));
}

void PlanningService::Serve(Request& request) {
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  const double waited_ms = request.queued.ElapsedMillis();
  const double deadline_ms = request.request.options.deadline_ms;
  if (deadline_ms > 0 && waited_ms >= deadline_ms) {
    // Too late to be useful; shedding now is cheaper than planning a result
    // nobody is waiting for. Queue-deadline misses are a genuine overload
    // signal, so they DO feed the breaker.
    Shed(request, "deadline expired while queued", /*record_failure=*/true);
    return;
  }

  const Timer serve_timer;
  const ServiceLevel level = EffectiveLevel();
  PlanResponse response;
  response.service_level = level;
  response.queue_wait_ms = waited_ms;

  // Shed tracing (and EXPLAIN-style extras) before planning work.
  TraceContext trace;
  std::optional<TraceSpan> span;
  if (request.request.trace != nullptr && level < kLevelShedTracing) {
    span.emplace(request.request.trace, "service.request");
    span->AddAttribute("level", static_cast<uint64_t>(level));
    span->AddAttribute("model", CostModelName(request.request.options.model));
    if (request.probe) span->AddAttribute("probe", true);
    trace = span->context();
  }

  CostModel model = request.request.options.model;
  bool served = false;
  // Cached-or-M1-only. Warm traffic is still answered (a cache hit re-costs
  // but never searches); cold traffic is demoted to M1, the
  // instance-independent model with the cheapest costing loop.
  if (level >= kLevelCachedOrM1) {
    if (std::optional<ViewPlanner::PlanResult> cached =
            planner_->TryPlanFromCache(request.request.query, model)) {
      response.result = std::move(*cached);
      response.served_from_cache_only = true;
      served = true;
      metrics.cache_only_hits->Increment();
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.cache_only_hits;
    } else if (model != CostModel::kM1) {
      model = CostModel::kM1;
      response.model_demoted = true;
      metrics.model_demotions->Increment();
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.model_demotions;
    }
  }

  if (!served) {
    const double remaining_ms =
        deadline_ms > 0
            ? std::max(0.001, deadline_ms - request.queued.ElapsedMillis())
            : 0;
    const ResourceLimits limits =
        PlanLimits(level, remaining_ms, request.request.options);
    // The shrunken-budget rung (and the deadline) act through the governor
    // installed here, the only budget the planner's pipeline observes.
    const ScopedGovernor governed(limits);
    response.result = planner_->Plan(request.request.query, model, trace);
    response.attempts = 1;
  }

  // Budget exhaustion — an injected fault included — is an answer (the
  // caller gets the planner's account), but it feeds the breaker as a
  // degradation signal.
  response.status = ServiceStatus::kOk;
  const double total_ms = request.queued.ElapsedMillis();
  const bool missed_deadline = deadline_ms > 0 && total_ms > deadline_ms;
  const bool breaker_failure =
      response.result.status == PlanStatus::kBudgetExhausted ||
      missed_deadline;

  const double serve_ms = serve_timer.ElapsedMillis();
  metrics.serve_us->Record(static_cast<uint64_t>(serve_ms * 1000.0));
  if (missed_deadline) metrics.deadline_misses->Increment();
  metrics.completed->Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed;
    if (missed_deadline) ++stats_.deadline_misses;
    // EWMA of observed service times, feeding the admission estimate.
    ewma_service_ms_ =
        ewma_valid_ ? 0.8 * ewma_service_ms_ + 0.2 * serve_ms : serve_ms;
    ewma_valid_ = true;
  }
  if (breaker_failure) {
    breaker_.RecordFailure();
  } else {
    breaker_.RecordSuccess();
  }

  if (span) {
    span->AddAttribute("status", ServiceStatusName(response.status));
    span->AddAttribute("plan_status", PlanStatusName(response.result.status));
    // Flush before completing: once the caller is told, it may tear the
    // sink down.
    span.reset();
  }
  request.done(std::move(response));
}

void PlanningService::Shutdown(DrainMode mode) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      drain_mode_ = mode;  // first caller's policy wins
    }
  }
  cv_.notify_all();
  // joinable() goes false after the first join, so a second Shutdown (the
  // destructor, typically) passes through without re-joining.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  VBR_CHECK_MSG(queue_.empty(), "workers exited with requests still queued");
}

PlanningService::Stats PlanningService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats snapshot = stats_;
  snapshot.queue_depth = queue_.size();
  snapshot.breaker_level = breaker_.level();
  snapshot.breaker_trips = breaker_.trips();
  snapshot.breaker_recoveries = breaker_.recoveries();
  snapshot.service_time_estimate_ms = ewma_valid_ ? ewma_service_ms_ : 0;
  return snapshot;
}

}  // namespace vbr
