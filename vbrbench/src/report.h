// Shared pieces of the benchmark program: options, timing and statistics
// helpers, the per-layer metric table, and the result line.
#ifndef VBRBENCH_REPORT_H_
#define VBRBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace vbrbench {

struct RunOptions {
  std::string workload;
  // Drives the request stream: order, popularity draws, models, renaming.
  uint64_t seed = 1;
  // Drives the data: catalogs, query pools and base relations. The gated
  // runs leave it at 1, so that runs with different seeds measure the same
  // system; data seed 2 is held out for re-checking a claim on other data.
  uint64_t data_seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run reports. `metrics` holds the end-to-end metrics of
// an untraced run or the per-layer metrics of a traced one.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit);
  // Records one failed check; the first few are echoed to stderr.
  void Fail(const std::string& what);
};

// Seconds on the steady clock.
double NowSec();

// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double GeoMean(const std::vector<double>& values);

// Peak resident set of this process (getrusage), MiB.
double PeakRssMb();

// The end-to-end latency metrics of one sample of per-request latencies,
// in ms. The p99 is reported with its sample count on stderr; it is
// supported (at least ten samples beyond it) from 1000 samples on.
void AddLatencyMetrics(Outcome* out, const std::vector<double>& latency_ms,
                       const char* label);
// Prints a sample's p50 and p99 with its size on stderr.
void PrintLatency(const std::vector<double>& latency_ms, const char* label);

// Work counts and times shared by the per-layer report.
struct LayerInputs {
  // Spans summed over every traced request, and over the first
  // count_window requests (the exact-repeat work counts).
  RequestTrace all;
  size_t requests = 0;
  RequestTrace window;
  size_t window_requests = 0;
  // MetricsRegistry counter deltas over the count window.
  uint64_t containment_checks = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  // Plan-cache counter deltas over the traced phase.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double generate_s = 0;
  double materialize_s = 0;
  double traced_p50_ms = 0;
  double untraced_p50_ms = 0;
  double error_rate = 0;
  // Share of answered requests that got no plan (a PlanStatus other than
  // kOk matching its reference).
  double no_plan_ratio = 0;
  size_t latency_samples = 0;
};

// Adds every per-layer metric. Wire-only metrics are passed in `wire`
// (left at zero by the in-process workloads).
struct WireLayer {
  double request_encode_us = 0;
  double request_decode_us = 0;
  double response_encode_us = 0;
  double response_decode_us = 0;
  double request_bytes = 0;
  double response_bytes = 0;
  double driver_late_ms = 0;
  double residual_us = 0;
  double queue_wait_us = 0;
  double delta_us = 0;
  double delta_invalidated = 0;
};
void AddLayerMetrics(Outcome* out, const LayerInputs& in,
                     const WireLayer& wire);

// Snapshot of the library's MetricsRegistry counters the report reads.
struct CounterSnapshot {
  uint64_t containment_checks = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  static CounterSnapshot Take();
};

// Prints the per-workload report (stderr) and the result line (stdout).
void PrintResult(const RunOptions& options, const Outcome& outcome);

}  // namespace vbrbench

#endif  // VBRBENCH_REPORT_H_
