#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/metrics.h"

namespace vbrbench {

void Outcome::Add(const std::string& name, double value,
                  const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void Outcome::Fail(const std::string& what) {
  if (failed < 5) std::fprintf(stderr, "[vbrbench] FAILED: %s\n", what.c_str());
  ++failed;
  correct = false;
}

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1.0));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintLatency(const std::vector<double>& latency_ms, const char* label) {
  const size_t beyond = latency_ms.size() / 100;
  std::fprintf(stderr,
               "[vbrbench] %s latency: %zu samples, p50 %.4f ms, p99 %.4f ms "
               "(%zu samples beyond p99%s)\n",
               label, latency_ms.size(), Quantile(latency_ms, 0.50),
               Quantile(latency_ms, 0.99), beyond,
               beyond >= 10 ? "" : "; p99 not supported by the sample");
}

void AddLatencyMetrics(Outcome* out, const std::vector<double>& latency_ms,
                       const char* label) {
  PrintLatency(latency_ms, label);
  out->Add("latency_p50_ms", Quantile(latency_ms, 0.50), "ms");
  out->Add("latency_p99_ms", Quantile(latency_ms, 0.99), "ms");
}

CounterSnapshot CounterSnapshot::Take() {
  vbr::MetricsRegistry& registry = vbr::MetricsRegistry::Global();
  CounterSnapshot s;
  s.containment_checks =
      registry.GetCounter("cq.containment_checks")->value();
  s.memo_hits = registry.GetCounter("cq.containment_memo_hits")->value();
  s.memo_misses = registry.GetCounter("cq.containment_memo_misses")->value();
  return s;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void AddLayerMetrics(Outcome* out, const LayerInputs& in,
                     const WireLayer& wire) {
  const RequestTrace& a = in.all;
  const RequestTrace& w = in.window;
  const double n = static_cast<double>(std::max<size_t>(in.requests, 1));
  const double k = static_cast<double>(std::max<size_t>(in.window_requests, 1));
  auto self = [&](Fn fn) { return a.self_us[static_cast<size_t>(fn)] / n; };

  out->Add("cq.parse_us", self(Fn::kParse), "us");
  out->Add("cq.canonicalize_us", self(Fn::kCanonicalize), "us");
  out->Add("cq.minimize_us", self(Fn::kMinimize), "us");
  out->Add("cq.containment_checks", in.containment_checks / k, "count");
  out->Add("cq.containment_memo_hit_ratio",
           Ratio(in.memo_hits, in.memo_hits + in.memo_misses), "ratio");

  out->Add("rewrite.corecover_us",
           self(Fn::kCoreCover) + self(Fn::kCoreCoverStar), "us");
  out->Add("rewrite.candidate_view_ratio",
           Ratio(a.candidate_views, a.catalog_views), "ratio");
  out->Add("rewrite.view_tuples", w.view_tuples / k, "count");
  out->Add("rewrite.tuple_cores", w.tuple_cores / k, "count");
  out->Add("rewrite.rewritings", w.rewritings / k, "count");
  out->Add("rewrite.certify_us", self(Fn::kCertify), "us");
  out->Add("rewrite.verify_us", self(Fn::kVerify), "us");

  out->Add("cost.advise_filters_us", self(Fn::kAdviseFilters), "us");
  out->Add("cost.filter_accept_ratio",
           Ratio(a.filters_added, a.filter_trials), "ratio");
  out->Add("cost.optimize_m2_us", self(Fn::kOptimizeM2), "us");
  out->Add("cost.optimize_m3_us", self(Fn::kOptimizeM3), "us");
  out->Add("cost.execute_plan_us", self(Fn::kExecutePlan), "us");
  out->Add("cost.subsets_costed", w.subsets_costed / k, "count");
  out->Add("cost.m3_plans_evaluated", w.m3_plans / k, "count");

  out->Add("engine.join_us", self(Fn::kJoinSize), "us");
  out->Add("engine.join_calls",
           w.calls[static_cast<size_t>(Fn::kJoinSize)] / k, "count");
  out->Add("engine.join_rows", w.join_rows / k, "count");
  out->Add("engine.materialize_s", in.materialize_s, "s");

  out->Add("planner.plan_us", a.total_us[static_cast<size_t>(Fn::kPlan)] / n,
           "us");
  out->Add("planner.unattributed_us", self(Fn::kPlan), "us");
  out->Add("planner.cache_lookup_us", self(Fn::kCacheLookup), "us");
  out->Add("planner.no_plan_ratio", in.no_plan_ratio, "ratio");
  out->Add("planner.cache_hit_ratio",
           Ratio(in.cache_hits, in.cache_hits + in.cache_misses), "ratio");
  out->Add("planner.delta_us", wire.delta_us, "us");
  out->Add("planner.delta_invalidated", wire.delta_invalidated, "count");
  out->Add("planner.service_queue_wait_us", wire.queue_wait_us, "us");

  out->Add("net.request_encode_us", wire.request_encode_us, "us");
  out->Add("net.request_decode_us", wire.request_decode_us, "us");
  out->Add("net.response_encode_us", wire.response_encode_us, "us");
  out->Add("net.response_decode_us", wire.response_decode_us, "us");
  out->Add("net.request_bytes", wire.request_bytes, "bytes");
  out->Add("net.response_bytes", wire.response_bytes, "bytes");
  out->Add("net.driver_late_ms", wire.driver_late_ms, "ms");
  out->Add("server.residual_us", wire.residual_us, "us");

  out->Add("workload.generate_s", in.generate_s, "s");
  out->Add("workload.latency_samples", static_cast<double>(in.latency_samples),
           "count");
  out->Add("trace.overhead_ratio", Ratio(in.traced_p50_ms, in.untraced_p50_ms),
           "ratio");
  out->Add("error_rate", in.error_rate, "ratio");
}

void PrintResult(const RunOptions& options, const Outcome& outcome) {
  std::fprintf(stderr, "[vbrbench] %s seed=%llu trace=%d: %s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0,
               outcome.correct ? "all outputs correct" : "OUTPUT CHECK FAILED");
  std::fprintf(stderr, "[vbrbench] attempted %llu failed %llu\n",
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed));
  for (const Metric& m : outcome.metrics) {
    std::fprintf(stderr, "[vbrbench]   %-32s %16.6f %s\n", m.name.c_str(),
                 m.value, m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += outcome.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace vbrbench
