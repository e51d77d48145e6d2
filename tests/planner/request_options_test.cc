// PlanRequestOptions: the transport-neutral request struct shared by
// in-process callers, the vbr_cli flags, the binary protocol, and the HTTP
// endpoint.  JSON round-trip fidelity matters because the HTTP /plan body
// and --options flag both deserialize through FromJson.
#include "planner/request_options.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/json.h"

namespace vbr {
namespace {

TEST(PlanRequestOptionsTest, DefaultsAreUnlimited) {
  PlanRequestOptions options;
  EXPECT_EQ(options.model, CostModel::kM2);
  EXPECT_EQ(options.deadline_ms, 0);
  EXPECT_TRUE(options.unlimited());
  EXPECT_TRUE(options.limits().unlimited());
}

TEST(PlanRequestOptionsTest, JsonRoundTripPreservesEveryField) {
  PlanRequestOptions options;
  options.model = CostModel::kM3;
  options.deadline_ms = 12.5;
  options.work_limit = 100'000;
  options.memory_limit_bytes = 1 << 20;
  options.search_node_cap = 777;

  std::string error;
  const auto parsed = PlanRequestOptions::FromJsonText(options.ToJson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, options);
}

TEST(PlanRequestOptionsTest, RoundTripOfDefaultsIsIdentity) {
  const PlanRequestOptions options;
  std::string error;
  const auto parsed = PlanRequestOptions::FromJsonText(options.ToJson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, options);
}

TEST(PlanRequestOptionsTest, PartialObjectKeepsDefaultsForAbsentFields) {
  std::string error;
  const auto parsed = PlanRequestOptions::FromJsonText(
      R"({"model":"m1","deadline_ms":50})", &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->model, CostModel::kM1);
  EXPECT_EQ(parsed->deadline_ms, 50);
  EXPECT_EQ(parsed->work_limit, 0u);
  EXPECT_EQ(parsed->memory_limit_bytes, 0u);
  EXPECT_EQ(parsed->search_node_cap, 0u);
}

TEST(PlanRequestOptionsTest, ModelNamesAreCaseInsensitive) {
  std::string error;
  for (const char* text :
       {R"({"model":"m3"})", R"({"model":"M3"})"}) {
    const auto parsed = PlanRequestOptions::FromJsonText(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->model, CostModel::kM3);
  }
}

TEST(PlanRequestOptionsTest, RejectsUnknownMembers) {
  std::string error;
  EXPECT_FALSE(PlanRequestOptions::FromJsonText(
                   R"({"model":"m2","dead_line":5})", &error)
                   .has_value());
  EXPECT_NE(error.find("dead_line"), std::string::npos) << error;
}

TEST(PlanRequestOptionsTest, RejectsWrongTypes) {
  std::string error;
  EXPECT_FALSE(
      PlanRequestOptions::FromJsonText(R"({"model":42})", &error).has_value());
  EXPECT_FALSE(
      PlanRequestOptions::FromJsonText(R"({"model":"m9"})", &error)
          .has_value());
  EXPECT_FALSE(PlanRequestOptions::FromJsonText(
                   R"({"deadline_ms":"fast"})", &error)
                   .has_value());
  EXPECT_FALSE(
      PlanRequestOptions::FromJsonText(R"({"work_limit":-3})", &error)
          .has_value());
  EXPECT_FALSE(
      PlanRequestOptions::FromJsonText(R"({"work_limit":1.5})", &error)
          .has_value());
  EXPECT_FALSE(PlanRequestOptions::FromJsonText("[1,2]", &error).has_value());
  EXPECT_FALSE(PlanRequestOptions::FromJsonText("not json", &error)
                   .has_value());
}

TEST(PlanRequestOptionsTest, RejectsNonFiniteDeadlines) {
  std::string error;
  // NaN and ±inf would silently disable the deadline and make ToJson emit
  // invalid JSON ("nan"/"inf").
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    const JsonValue value = JsonValue::Object(
        {{"deadline_ms", JsonValue::Number(bad)}});
    EXPECT_FALSE(PlanRequestOptions::FromJson(value, &error).has_value());
    EXPECT_NE(error.find("deadline_ms"), std::string::npos) << error;
  }
  // An overflowing literal must not sneak through the text path either.
  EXPECT_FALSE(PlanRequestOptions::FromJsonText(
                   R"({"deadline_ms":1e999})", &error)
                   .has_value());
}

TEST(PlanRequestOptionsTest, StricterOfTakesTheTighterOfEachLimit) {
  PlanRequestOptions a;
  a.deadline_ms = 100;
  a.work_limit = 0;  // unlimited
  a.memory_limit_bytes = 4096;
  a.search_node_cap = 10;

  PlanRequestOptions b;
  b.deadline_ms = 50;
  b.work_limit = 1000;
  b.memory_limit_bytes = 0;  // unlimited
  b.search_node_cap = 20;

  // The one stricter-wins merge (common/budget.h), as a service applies it
  // to a request's limits and its own cap.
  const ResourceLimits merged = a.limits().StricterOf(b.limits());
  EXPECT_EQ(merged.deadline_ms, 50);
  EXPECT_EQ(merged.work_limit, 1000u);
  EXPECT_EQ(merged.memory_limit_bytes, 4096u);
  EXPECT_EQ(merged.search_node_cap, 10u);
  // Order-free, so a chain of caps merges the same way in any order.
  const ResourceLimits reversed = b.limits().StricterOf(a.limits());
  EXPECT_EQ(reversed.deadline_ms, merged.deadline_ms);
  EXPECT_EQ(reversed.work_limit, merged.work_limit);
  EXPECT_EQ(reversed.memory_limit_bytes, merged.memory_limit_bytes);
  EXPECT_EQ(reversed.search_node_cap, merged.search_node_cap);
  // Unset on both sides stays unset.
  EXPECT_TRUE(ResourceLimits{}.StricterOf(ResourceLimits{}).unlimited());
}

}  // namespace
}  // namespace vbr
