// Seeded self-join chain property test for the planner.
//
// Chains over a two-predicate alphabet {p0, p1} with chain sub-path views
// are where CoreCover emits covers whose tuple-cores overlap on a subgoal
// with conflicting existential mappings, so the emitted rewriting is not
// equivalent to the query. The planner must never serve such a rewriting
// and never abort on it: every request ends in a terminal status, and every
// kOk plan carries a certificate that independently verifies. Each program
// runs under M1/M2/M3, against empty and random view instances, and twice
// per planner so the cache-hit path (which re-certifies) runs too.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "cq/parser.h"
#include "engine/materialize.h"
#include "planner/planner.h"
#include "rewrite/certificate.h"

namespace vbr {
namespace {

constexpr int kBlocks = 6;
constexpr int kProgramsPerBlock = 50;

struct ChainProgram {
  std::string text;  // query first, then views; for failure messages
  ConjunctiveQuery query;
  ViewSet views;
};

// A chain query of 3-8 subgoals over {p0, p1}, 2-6 views that are chain
// sub-paths of length 1-3 (head: both endpoints, plus each interior
// variable with probability 0.3), and the two single-predicate views.
ChainProgram GenerateChain(uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.UniformInt(3, 8));
  std::vector<std::string> predicates;
  for (int k = 0; k < n; ++k) {
    predicates.push_back("p" + std::to_string(rng.UniformInt(0, 1)));
  }
  auto link = [&](int k, const char* var) {
    const std::string v(var);
    return predicates[k] + "(" + v + std::to_string(k) + "," + v +
           std::to_string(k + 1) + ")";
  };
  std::string text = "q(X0,X" + std::to_string(n) + ") :- ";
  for (int k = 0; k < n; ++k) text += (k > 0 ? ", " : "") + link(k, "X");
  text += ".\n";
  const int num_views = static_cast<int>(rng.UniformInt(2, 6));
  for (int v = 0; v < num_views; ++v) {
    const int from = static_cast<int>(rng.UniformInt(0, n - 1));
    const int to =
        from + static_cast<int>(rng.UniformInt(1, std::min(3, n - from)));
    std::string head = "v" + std::to_string(v) + "(B" + std::to_string(from);
    std::string body;
    for (int k = from; k < to; ++k) {
      if (k > from && rng.Bernoulli(0.3)) head += ",B" + std::to_string(k);
      body += (k > from ? ", " : "") + link(k, "B");
    }
    text += head + ",B" + std::to_string(to) + ") :- " + body + ".\n";
  }
  text += "w0(A,B) :- p0(A,B).\nw1(A,B) :- p1(A,B).\n";
  std::vector<ConjunctiveQuery> rules = MustParseProgram(text);
  ChainProgram program;
  program.text = text;
  program.query = rules.front();
  program.views.assign(rules.begin() + 1, rules.end());
  return program;
}

// Random p0/p1 facts over a small domain, so joins are neither empty nor
// cartesian-sized.
Database RandomBase(uint64_t seed) {
  Rng rng(seed);
  Database base;
  for (const char* predicate : {"p0", "p1"}) {
    const int rows = static_cast<int>(rng.UniformInt(4, 12));
    for (int r = 0; r < rows; ++r) {
      base.AddRow(predicate, {rng.UniformInt(0, 4), rng.UniformInt(0, 4)});
    }
  }
  return base;
}

// Plans `program` over `instances` under M1/M2/M3, twice per model on one
// planner so the second request is a cache hit, and expects every request
// to end in a terminal status and every kOk plan's certificate to verify.
void ExpectTerminalAndVerified(const ChainProgram& program,
                               const Database& instances,
                               const std::string& data_label) {
  ViewPlanner planner(program.views, instances);
  for (const CostModel model :
       {CostModel::kM1, CostModel::kM2, CostModel::kM3}) {
    for (int round = 0; round < 2; ++round) {
      const ViewPlanner::PlanResult result =
          planner.Plan(program.query, model);
      SCOPED_TRACE(std::string(CostModelName(model)) + " " + data_label +
                   (round > 0 ? ", cached" : ", fresh"));
      EXPECT_EQ(result.cache_hit, round > 0);
      switch (result.status) {
        case PlanStatus::kOk: {
          ASSERT_TRUE(result.choice.has_value());
          std::string why;
          EXPECT_TRUE(VerifyCertificate(result.choice->certificate,
                                        program.views, &why))
              << why;
          break;
        }
        case PlanStatus::kNoRewriting:
        case PlanStatus::kUnsupportedQueryTooLarge:
        case PlanStatus::kBudgetExhausted:
          EXPECT_FALSE(result.choice.has_value());
          break;
        default:
          ADD_FAILURE() << "non-terminal status "
                        << static_cast<int>(result.status);
      }
    }
  }
}

class PlannerSelfJoinChainTest : public ::testing::TestWithParam<int> {};

TEST_P(PlannerSelfJoinChainTest, EveryRequestEndsTerminalAndOkPlansVerify) {
  for (int i = 0; i < kProgramsPerBlock; ++i) {
    const uint64_t seed =
        static_cast<uint64_t>(GetParam() * kProgramsPerBlock + i + 1);
    const ChainProgram program = GenerateChain(seed);
    SCOPED_TRACE(program.text);
    ExpectTerminalAndVerified(program, Database(), "empty");
    ExpectTerminalAndVerified(
        program, MaterializeViews(program.views, RandomBase(seed)),
        "with data");
  }
}

// The same overlapping-cores defect over four distinct predicates: the only
// GMR CoreCover emits, v1(X2,X4), v2(X0,X3), has cores that overlap on
// e2(X2,X3), so it fails certification, while v0, v1, v3 is a sound cover.
// Only terminal statuses and verifying kOk plans are asserted; which status
// M1 ends in is left open.
TEST(PlannerDistinctPredicateTest, OverlappingCoresEndTerminalAndOkPlansVerify) {
  ChainProgram program;
  program.text =
      "q(X0,X4) :- e0(X0,X1), e1(X1,X2), e2(X2,X3), e3(X3,X4).\n"
      "v0(B0,B1) :- e0(B0,B1).\n"
      "v1(B2,B4) :- e2(B2,B3), e3(B3,B4).\n"
      "v2(B0,B3) :- e0(B0,B1), e1(B1,B2), e2(B2,B3).\n"
      "v3(B1,B2) :- e1(B1,B2).\n";
  const std::vector<ConjunctiveQuery> rules = MustParseProgram(program.text);
  program.query = rules.front();
  program.views.assign(rules.begin() + 1, rules.end());
  SCOPED_TRACE(program.text);
  Database base;
  for (Value i = 0; i < 4; ++i) {
    base.AddRow("e0", {i, i + 1});
    base.AddRow("e1", {i + 1, i % 3});
    base.AddRow("e2", {i % 3, i});
    base.AddRow("e3", {i, i % 2});
  }
  ExpectTerminalAndVerified(program, Database(), "empty");
  ExpectTerminalAndVerified(program, MaterializeViews(program.views, base),
                            "with data");
}

INSTANTIATE_TEST_SUITE_P(Blocks, PlannerSelfJoinChainTest,
                         ::testing::Range(0, kBlocks));

}  // namespace
}  // namespace vbr
