// The closed loop shared by the in-process workloads: one client calls
// ViewPlanner::Plan, times call to return, and checks every result.
#ifndef VBRBENCH_INPROCESS_H_
#define VBRBENCH_INPROCESS_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/trace.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "report.h"
#include "spans.h"

namespace vbrbench {

struct InProcessRequest {
  const vbr::ViewPlanner* planner = nullptr;
  vbr::ConjunctiveQuery query;
  vbr::CostModel model = vbr::CostModel::kM1;
};

struct LoopResult {
  std::vector<double> latency_ms;
  // Requests in the count window (the first `window` of the loop).
  size_t window_requests = 0;
  size_t completed = 0;
  double elapsed_s = 0;
  // Traced loops only: spans over all requests and over the window, and
  // the library counter deltas over the window.
  RequestTrace all;
  RequestTrace window;
  uint64_t containment_checks = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
};

// Runs requests from `next(i)` until `seconds` have passed and at least
// max(window, min_requests) requests completed. `check(i, request, result)` returns false
// (after calling out->Fail) on a wrong output. In a traced loop each
// request is one RequestScope holding a parse of the query's text and the
// Plan call.
template <typename Next, typename Check>
LoopResult RunClosedLoop(double seconds, size_t window, size_t min_requests,
                         bool traced, Next&& next, Check&& check,
                         Outcome* out) {
  min_requests = std::max(window, min_requests);
  LoopResult loop;
  SetTracing(traced);
  const double start = NowSec();
  for (size_t i = 0;; ++i) {
    const double now = NowSec();
    if (now - start >= seconds && i >= min_requests) break;
    const InProcessRequest request = next(i);
    const std::string text = traced ? request.query.ToString() : std::string();
    const CounterSnapshot before =
        i < window ? CounterSnapshot::Take() : CounterSnapshot{};
    RequestTrace trace;
    vbr::ViewPlanner::PlanResult result;
    double latency_ms = 0;
    {
      RequestScope scope(&trace);
      if (traced) (void)vbr::ParseQuery(text);
      const double t0 = NowSec();
      result = request.planner->Plan(request.query, request.model,
                                     vbr::TraceContext{});
      latency_ms = (NowSec() - t0) * 1e3;
    }
    ++out->attempted;
    loop.latency_ms.push_back(latency_ms);
    if (i < window) {
      const CounterSnapshot after = CounterSnapshot::Take();
      loop.containment_checks +=
          after.containment_checks - before.containment_checks;
      loop.memo_hits += after.memo_hits - before.memo_hits;
      loop.memo_misses += after.memo_misses - before.memo_misses;
      loop.window.Add(trace);
      ++loop.window_requests;
    }
    loop.all.Add(trace);
    if (check(i, request, result)) ++loop.completed;
  }
  loop.elapsed_s = NowSec() - start;
  SetTracing(false);
  return loop;
}

}  // namespace vbrbench

#endif  // VBRBENCH_INPROCESS_H_
