#!/bin/sh
# Builds the library and tests with ThreadSanitizer (-DVBR_SANITIZE=thread)
# and runs the concurrency-sensitive suites: the SymbolTable stress tests,
# the determinism tests (including CoreCover run by concurrent callers), and
# the suites that plan on several threads.
# Any reported race fails the run (TSAN_OPTIONS halt_on_error).
#
# Usage: scripts/check_tsan.sh [extra ctest -R regex]
# The build tree is build-tsan/ (kept separate from the regular build/).
set -eu
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}
# ctest names gtest cases "<Suite>.<Test>"; this matches the SymbolTable
# stress suite, the determinism suites (including budget determinism), the
# costing-session suites (four threads sharing one snapshot's memo), the
# sharded plan cache suites, the view-delta suite (AddViews/RemoveViews
# racing concurrent Plan calls), the resource-governance fault-injection
# suites, the containment-memo determinism suite, the PlanningService stress
# harness (worker pool, breaker ladder, concurrent ReplaceViews), and the
# PlanServer integration suite (IO thread vs worker completions vs client
# threads over real sockets).
FILTER=${1:-'SymbolConcurrency|CostingSession|Determinism|PlanCache|ViewDelta|BudgetGovernance|FaultMatrix|FaultInjection|StressHarness|CircuitBreaker|PlanServer'}

cmake -B "$BUILD_DIR" -S . \
  -DVBR_SANITIZE=thread \
  -DVBR_BUILD_BENCHMARKS=OFF \
  -DVBR_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target symbol_concurrency_test costing_session_test \
  determinism_test plan_cache_test plan_cache_metamorphic_test \
  view_delta_test \
  budget_determinism_test budget_governance_test fault_matrix_test \
  fault_injection_test stress_harness_test circuit_breaker_test \
  signature_prefilter_test server_integration_test

TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R "$FILTER"

echo "check_tsan: all concurrency tests passed under ThreadSanitizer"
