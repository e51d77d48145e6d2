#include "planner/request_options.h"

#include <cmath>

namespace vbr {

namespace {

// Reads an optional non-negative number member into *out (as uint64_t).
bool ReadLimit(const JsonValue& object, const std::string& key, uint64_t* out,
               std::string* error) {
  const JsonValue* member = object.Get(key);
  if (member == nullptr) return true;
  if (!member->is_number() || member->number_value() < 0 ||
      std::floor(member->number_value()) != member->number_value()) {
    if (error != nullptr) {
      *error = "\"" + key + "\" must be a non-negative integer";
    }
    return false;
  }
  *out = static_cast<uint64_t>(member->number_value());
  return true;
}

}  // namespace

ResourceLimits PlanRequestOptions::limits() const {
  ResourceLimits limits;
  limits.deadline_ms = deadline_ms;
  limits.work_limit = work_limit;
  limits.memory_limit_bytes = memory_limit_bytes;
  limits.search_node_cap = search_node_cap;
  return limits;
}

std::string PlanRequestOptions::ToJson() const {
  std::string s = "{";
  s += "\"model\":\"" + std::string(CostModelName(model)) + "\"";
  s += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  s += ",\"work_limit\":" + std::to_string(work_limit);
  s += ",\"memory_limit_bytes\":" + std::to_string(memory_limit_bytes);
  s += ",\"search_node_cap\":" + std::to_string(search_node_cap);
  s += "}";
  return s;
}

std::optional<PlanRequestOptions> PlanRequestOptions::FromJson(
    const JsonValue& value, std::string* error) {
  if (!value.is_object()) {
    if (error != nullptr) *error = "options must be a JSON object";
    return std::nullopt;
  }
  PlanRequestOptions options;
  for (const auto& [key, member] : value.object_members()) {
    if (key == "model") {
      if (!member.is_string() ||
          !CostModelFromName(member.string_value(), &options.model)) {
        if (error != nullptr) *error = "\"model\" must be \"m1\"|\"m2\"|\"m3\"";
        return std::nullopt;
      }
    } else if (key == "deadline_ms") {
      if (!member.is_number() || !std::isfinite(member.number_value()) ||
          member.number_value() < 0) {
        if (error != nullptr) {
          *error = "\"deadline_ms\" must be a finite non-negative number";
        }
        return std::nullopt;
      }
      options.deadline_ms = member.number_value();
    } else if (key == "work_limit" || key == "memory_limit_bytes" ||
               key == "search_node_cap") {
      // Handled below via ReadLimit so all three share the validation.
    } else {
      if (error != nullptr) *error = "unknown option \"" + key + "\"";
      return std::nullopt;
    }
  }
  if (!ReadLimit(value, "work_limit", &options.work_limit, error) ||
      !ReadLimit(value, "memory_limit_bytes", &options.memory_limit_bytes,
                 error) ||
      !ReadLimit(value, "search_node_cap", &options.search_node_cap, error)) {
    return std::nullopt;
  }
  return options;
}

std::optional<PlanRequestOptions> PlanRequestOptions::FromJsonText(
    std::string_view text, std::string* error) {
  std::optional<JsonValue> parsed = ParseJson(text, error);
  if (!parsed.has_value()) return std::nullopt;
  return FromJson(*parsed, error);
}

}  // namespace vbr
