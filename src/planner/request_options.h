#ifndef VBR_PLANNER_REQUEST_OPTIONS_H_
#define VBR_PLANNER_REQUEST_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/budget.h"
#include "common/json.h"
#include "cost/cost_model.h"

namespace vbr {

// The one transport-neutral description of HOW a single planning request
// should be served: which cost model, how long it may run, and how much
// work/memory it may consume. Every entry point consumes the same struct —
// in-process ViewPlanner::Plan / PlanningService::Submit, vbr_cli flags,
// the binary wire protocol (net/frame.h), and the HTTP /plan endpoint.
//
// All limits are "0 = unset". ViewPlanner::Plan installs them as given (one
// fresh governor around the call). A PlanningService, and so the wire
// server in front of it, merges them with its Options::budget cap through
// ResourceLimits::StricterOf: an unset field inherits the cap, and when
// both sides set a field the STRICTER one wins — a client can always narrow
// its own request, never widen a server-side cap.
struct PlanRequestOptions {
  CostModel model = CostModel::kM2;
  // Wall-clock deadline measured from submission, ms; 0 = none. At the
  // service this feeds admission control, queue expiry, and the governor;
  // in-process it bounds the single Plan call.
  double deadline_ms = 0;
  // Work-unit budget (common/budget.h), 0 = unlimited.
  uint64_t work_limit = 0;
  // Tracked-allocation budget in bytes, 0 = unlimited.
  uint64_t memory_limit_bytes = 0;
  // Per-backtracking-search node cap, 0 = derived (see ResourceLimits).
  uint64_t search_node_cap = 0;

  bool operator==(const PlanRequestOptions&) const = default;

  // The governor limits these options describe (deadline included).
  ResourceLimits limits() const;

  // True when every budget field is unset (model aside).
  bool unlimited() const {
    return deadline_ms <= 0 && work_limit == 0 && memory_limit_bytes == 0 &&
           search_node_cap == 0;
  }

  // One canonical JSON dialect, shared by the CLI, the HTTP endpoint, and
  // tests:
  //   {"model":"M2","deadline_ms":50,"work_limit":100000,
  //    "memory_limit_bytes":0,"search_node_cap":0}
  std::string ToJson() const;

  // Parses the dialect above. Absent members keep their defaults; unknown
  // members are rejected (the wire must not silently drop a limit a client
  // believes it set). On failure returns nullopt and fills `error`.
  static std::optional<PlanRequestOptions> FromJson(const JsonValue& value,
                                                    std::string* error);
  static std::optional<PlanRequestOptions> FromJsonText(std::string_view text,
                                                        std::string* error);
};

}  // namespace vbr

#endif  // VBR_PLANNER_REQUEST_OPTIONS_H_
