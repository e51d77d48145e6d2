// Per-layer spans for the traced run.
//
// The benchmark never edits the library. Instead the link step routes every
// call the library makes into a fixed set of public functions through a
// wrapper in spans.cc (GNU ld `--wrap`, symbol list in
// wrapped_symbols.cmake). Each wrapper opens a span around the real call, so
// the traced run sees the planner's own calls, nested as they happen:
//
//   request -> plan -> canonicalize -> minimize
//                   -> cache_lookup
//                   -> corecover* -> minimize
//                   -> advise_filters -> optimize_m2 -> join_size
//                   -> optimize_m3 -> execute_plan
//                   -> certify / verify
//
// A layer's self time is its span's duration minus its child spans. Spans
// are kept in memory: per request as a RequestTrace, and per call path in
// one aggregated tree that is written out when the run ends.
//
// With tracing off (the untraced runs) each wrapper costs one relaxed atomic
// load before the real call.
#ifndef VBRBENCH_SPANS_H_
#define VBRBENCH_SPANS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vbrbench {

// The functions that get a span. kRequest is the benchmark's own root.
enum class Fn : int {
  kRequest = 0,
  kParse,
  kPlan,
  kCanonicalize,
  kMinimize,
  kCacheLookup,
  kCoreCover,
  kCoreCoverStar,
  kAdviseFilters,
  kOptimizeM2,
  kOptimizeM3,
  kExecutePlan,
  kJoinSize,
  kCertify,
  kVerify,
  kDecodeRequest,
  kEncodeResponse,
  kNumFns,
};
inline constexpr size_t kNumFns = static_cast<size_t>(Fn::kNumFns);

// "module.function", e.g. "cost.optimize_m2".
const char* FnName(Fn fn);

// What one request's spans saw. Times are microseconds.
struct RequestTrace {
  std::array<double, kNumFns> self_us{};
  std::array<double, kNumFns> total_us{};
  std::array<uint64_t, kNumFns> calls{};
  // Work counts read from the wrapped calls' return values.
  uint64_t join_rows = 0;        // sum of JoinSize results
  uint64_t subsets_costed = 0;   // sum of OptimizeOrderM2 subsets_costed
  uint64_t m3_plans = 0;         // sum of OptimizeM3 plans_evaluated
  uint64_t filter_trials = 0;    // candidate filters AdviseFilters costed
  uint64_t filters_added = 0;
  uint64_t view_tuples = 0;      // CoreCover(Star) stats
  uint64_t tuple_cores = 0;
  uint64_t rewritings = 0;
  uint64_t candidate_views = 0;
  uint64_t catalog_views = 0;

  void Add(const RequestTrace& other);
};

// Turns span recording on or off process-wide.
void SetTracing(bool on);
bool TracingOn();

// Marks the calling thread as a load-generating thread: wire codec and
// parser calls made on it are the client's, not the server's, and open no
// span. Server IO and service worker threads are left unmarked.
void MarkClientThread();

// The benchmark's root span around one in-process request. Spans opened
// on this thread until it closes are accumulated into *out.
class RequestScope {
 public:
  explicit RequestScope(RequestTrace* out);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  bool active_ = false;
};

// Server-side spans of one wire request, keyed by its request id: decode
// and parse on the IO thread, plan on a service worker, and encode in the
// completion callback on that same worker.
struct ServerRecord {
  bool planned = false;
  RequestTrace plan;
  double decode_us = 0;
  double parse_us = 0;
  double encode_us = 0;
};

// Sizes the record table for request ids [0, n) and clears it.
void ResetServerRecords(size_t n);
// A copy of the table. Read it once every response has arrived.
std::vector<ServerRecord> ServerRecords();

// The aggregated span tree: one line per call path with calls, total and
// self time.
std::string SpanTreeText();

}  // namespace vbrbench

#endif  // VBRBENCH_SPANS_H_
