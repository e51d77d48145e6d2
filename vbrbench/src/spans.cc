#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>

#include "cost/filter_advisor.h"
#include "cost/m2_optimizer.h"
#include "cost/m3_optimizer.h"
#include "cost/physical_plan.h"
#include "cq/fingerprint.h"
#include "cq/parser.h"
#include "engine/evaluator.h"
#include "net/frame.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "rewrite/certificate.h"
#include "rewrite/core_cover.h"

namespace vbrbench {
namespace {

constexpr int kMaxDepth = 32;

std::atomic<bool> g_on{false};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One call path of the span tree.
struct Node {
  Fn fn = Fn::kRequest;
  int parent = -1;
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

struct Frame {
  Fn fn = Fn::kRequest;
  int64_t start_ns = 0;
  int64_t child_ns = 0;
  uint32_t child_calls = 0;
  int node = -1;
};

struct ThreadState {
  bool client = false;
  int depth = 0;
  Frame stack[kMaxDepth];
  // Where the open request's spans accumulate: the RequestScope's target,
  // or `scratch` for a root opened by a server thread.
  RequestTrace* out = nullptr;
  RequestTrace scratch;
  std::vector<Node> tree;
  // Server linkage: the worker's last finished plan (claimed by the encode
  // of the response that follows it on the same thread) and the IO
  // thread's last decoded request id (claimed by the parse that follows).
  bool has_last_plan = false;
  RequestTrace last_plan;
  int64_t last_decoded_id = -1;
};

thread_local ThreadState t_state;

std::mutex g_tree_mu;
std::vector<Node> g_tree;  // guarded by g_tree_mu
std::map<std::pair<int, int>, int> g_tree_index;  // guarded by g_tree_mu

// Written by server threads as each request passes, read by the client
// once it has every response.
std::mutex g_records_mu;
std::vector<ServerRecord> g_records;  // guarded by g_records_mu

int LocalChild(ThreadState& s, int parent, Fn fn) {
  for (size_t i = 0; i < s.tree.size(); ++i) {
    if (s.tree[i].parent == parent && s.tree[i].fn == fn) {
      return static_cast<int>(i);
    }
  }
  Node node;
  node.fn = fn;
  node.parent = parent;
  s.tree.push_back(node);
  return static_cast<int>(s.tree.size()) - 1;
}

// Folds the thread's tree for one finished root into the global tree.
void MergeTree(ThreadState& s) {
  std::lock_guard<std::mutex> lock(g_tree_mu);
  std::vector<int> global_of(s.tree.size(), -1);
  // Parents precede children in s.tree (a node is created while its parent
  // frame is open).
  for (size_t i = 0; i < s.tree.size(); ++i) {
    const Node& local = s.tree[i];
    const int gparent = local.parent < 0 ? -1 : global_of[local.parent];
    const auto key = std::make_pair(gparent, static_cast<int>(local.fn));
    auto it = g_tree_index.find(key);
    if (it == g_tree_index.end()) {
      Node node;
      node.fn = local.fn;
      node.parent = gparent;
      g_tree.push_back(node);
      it = g_tree_index.emplace(key, static_cast<int>(g_tree.size()) - 1)
               .first;
    }
    Node& global = g_tree[it->second];
    global.calls += local.calls;
    global.total_ns += local.total_ns;
    global.self_ns += local.self_ns;
    global_of[i] = it->second;
  }
  s.tree.clear();
}

bool ServerRootFn(Fn fn) {
  return fn == Fn::kPlan || fn == Fn::kDecodeRequest || fn == Fn::kParse ||
         fn == Fn::kEncodeResponse;
}

// Applies `update` to the record of `request_id`, if the table has one.
template <typename Update>
void UpdateRecord(int64_t request_id, Update&& update) {
  std::lock_guard<std::mutex> lock(g_records_mu);
  if (request_id >= 0 && static_cast<size_t>(request_id) < g_records.size()) {
    update(g_records[static_cast<size_t>(request_id)]);
  }
}

// A span around one wrapped call. Inert unless tracing is on and the call
// is nested in an open root, or may itself open one (ServerRootFn on a
// server thread).
class Span {
 public:
  explicit Span(Fn fn) {
    if (!g_on.load(std::memory_order_relaxed)) return;
    ThreadState& s = t_state;
    if (s.depth == 0) {
      if (s.client || !ServerRootFn(fn)) return;
      s.scratch = RequestTrace{};
      s.out = &s.scratch;
      root_ = true;
    }
    Open(s, fn);
  }
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }
  bool root() const { return root_; }
  // Direct child spans opened so far.
  uint32_t child_calls() const {
    return active_ ? t_state.stack[t_state.depth - 1].child_calls : 0;
  }
  RequestTrace* trace() const { return t_state.out; }

  // Closes the span; returns its duration in microseconds (0 if inert).
  double End() {
    if (!active_) return 0;
    active_ = false;
    ThreadState& s = t_state;
    const Frame frame = s.stack[--s.depth];
    const int64_t dur = NowNs() - frame.start_ns;
    const int64_t self = dur - frame.child_ns;
    const size_t f = static_cast<size_t>(frame.fn);
    s.out->self_us[f] += self / 1e3;
    s.out->total_us[f] += dur / 1e3;
    s.out->calls[f] += 1;
    Node& node = s.tree[frame.node];
    node.calls += 1;
    node.total_ns += dur;
    node.self_ns += self;
    if (s.depth > 0) {
      s.stack[s.depth - 1].child_ns += dur;
    } else {
      MergeTree(s);
      if (root_ && frame.fn == Fn::kPlan) {
        s.last_plan = s.scratch;
        s.has_last_plan = true;
      }
      s.out = nullptr;
    }
    return dur / 1e3;
  }

 protected:
  Span() = default;

  void Open(ThreadState& s, Fn fn) {
    if (s.depth >= kMaxDepth) return;
    const int parent = s.depth == 0 ? -1 : s.stack[s.depth - 1].node;
    if (s.depth > 0) s.stack[s.depth - 1].child_calls += 1;
    Frame& frame = s.stack[s.depth++];
    frame.fn = fn;
    frame.child_ns = 0;
    frame.child_calls = 0;
    frame.node = LocalChild(s, parent, fn);
    frame.start_ns = NowNs();
    active_ = true;
  }

 private:
  bool active_ = false;
  bool root_ = false;
};

}  // namespace

const char* FnName(Fn fn) {
  switch (fn) {
    case Fn::kRequest: return "bench.request";
    case Fn::kParse: return "cq.parse";
    case Fn::kPlan: return "planner.plan";
    case Fn::kCanonicalize: return "cq.canonicalize";
    case Fn::kMinimize: return "cq.minimize";
    case Fn::kCacheLookup: return "planner.cache_lookup";
    case Fn::kCoreCover: return "rewrite.corecover";
    case Fn::kCoreCoverStar: return "rewrite.corecover_star";
    case Fn::kAdviseFilters: return "cost.advise_filters";
    case Fn::kOptimizeM2: return "cost.optimize_m2";
    case Fn::kOptimizeM3: return "cost.optimize_m3";
    case Fn::kExecutePlan: return "cost.execute_plan";
    case Fn::kJoinSize: return "engine.join_size";
    case Fn::kCertify: return "rewrite.certify";
    case Fn::kVerify: return "rewrite.verify";
    case Fn::kDecodeRequest: return "net.request_decode";
    case Fn::kEncodeResponse: return "net.response_encode";
    case Fn::kNumFns: break;
  }
  return "?";
}

void RequestTrace::Add(const RequestTrace& other) {
  for (size_t i = 0; i < kNumFns; ++i) {
    self_us[i] += other.self_us[i];
    total_us[i] += other.total_us[i];
    calls[i] += other.calls[i];
  }
  join_rows += other.join_rows;
  subsets_costed += other.subsets_costed;
  m3_plans += other.m3_plans;
  filter_trials += other.filter_trials;
  filters_added += other.filters_added;
  view_tuples += other.view_tuples;
  tuple_cores += other.tuple_cores;
  rewritings += other.rewritings;
  candidate_views += other.candidate_views;
  catalog_views += other.catalog_views;
}

void SetTracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool TracingOn() { return g_on.load(std::memory_order_relaxed); }

void MarkClientThread() { t_state.client = true; }

namespace {

// RequestScope's frame: a root opened explicitly by the benchmark.
class RootSpan : public Span {
 public:
  explicit RootSpan(RequestTrace* out) {
    ThreadState& s = t_state;
    if (!g_on.load(std::memory_order_relaxed) || s.depth != 0) return;
    s.out = out;
    Open(s, Fn::kRequest);
  }
};

thread_local std::optional<RootSpan> t_root;

}  // namespace

RequestScope::RequestScope(RequestTrace* out) {
  t_root.emplace(out);
  active_ = t_root->active();
  if (!active_) t_root.reset();
}

RequestScope::~RequestScope() {
  if (active_) t_root.reset();
}

void ResetServerRecords(size_t n) {
  std::lock_guard<std::mutex> lock(g_records_mu);
  g_records.assign(n, ServerRecord{});
}

std::vector<ServerRecord> ServerRecords() {
  std::lock_guard<std::mutex> lock(g_records_mu);
  return g_records;
}

std::string SpanTreeText() {
  std::lock_guard<std::mutex> lock(g_tree_mu);
  std::vector<std::vector<int>> children(g_tree.size());
  std::vector<int> roots;
  for (size_t i = 0; i < g_tree.size(); ++i) {
    if (g_tree[i].parent < 0) {
      roots.push_back(static_cast<int>(i));
    } else {
      children[g_tree[i].parent].push_back(static_cast<int>(i));
    }
  }
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-44s %10s %14s %14s\n", "span",
                "calls", "total_ms", "self_ms");
  out += line;
  std::vector<std::pair<int, int>> stack;  // (node, depth)
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, 0);
  }
  while (!stack.empty()) {
    const auto [n, depth] = stack.back();
    stack.pop_back();
    const Node& node = g_tree[n];
    const std::string label =
        std::string(static_cast<size_t>(depth) * 2, ' ') + FnName(node.fn);
    std::snprintf(line, sizeof(line), "%-44s %10llu %14.3f %14.3f\n",
                  label.c_str(), static_cast<unsigned long long>(node.calls),
                  node.total_ns / 1e6, node.self_ns / 1e6);
    out += line;
    for (auto c = children[n].rbegin(); c != children[n].rend(); ++c) {
      stack.emplace_back(*c, depth + 1);
    }
  }
  return out;
}

}  // namespace vbrbench

// ---------------------------------------------------------------------------
// Link-time wrappers. `--wrap=S` sends every undefined reference to S to
// __wrap_S, and __real_S to the original. The __real_ declarations are weak
// so that a symbol the library no longer defines (after a signature change)
// leaves its wrapper unused instead of breaking the link; the traced run
// then reports the span as never seen. Member functions take `this` as the
// first argument, which matches the Itanium C++ ABI.
// ---------------------------------------------------------------------------

using vbrbench::Fn;
using vbrbench::Span;

#define VBRBENCH_WRAP(ret, sym, ...)                              \
  extern "C" ret __real_##sym(__VA_ARGS__) __attribute__((weak)); \
  extern "C" ret __wrap_##sym(__VA_ARGS__)

VBRBENCH_WRAP(vbr::ViewPlanner::PlanResult,
              _ZNK3vbr11ViewPlanner4PlanERKNS_16ConjunctiveQueryENS_9CostModelERKNS_12TraceContextE,
              const vbr::ViewPlanner* self, const vbr::ConjunctiveQuery& query,
              vbr::CostModel model, const vbr::TraceContext& trace) {
  Span span(Fn::kPlan);
  return __real__ZNK3vbr11ViewPlanner4PlanERKNS_16ConjunctiveQueryENS_9CostModelERKNS_12TraceContextE(
      self, query, model, trace);
}

VBRBENCH_WRAP(std::optional<vbr::ConjunctiveQuery>,
              _ZN3vbr10ParseQueryESt17basic_string_viewIcSt11char_traitsIcEEPNSt7__cxx1112basic_stringIcS2_SaIcEEE,
              std::string_view text, std::string* error) {
  Span span(Fn::kParse);
  auto parsed =
      __real__ZN3vbr10ParseQueryESt17basic_string_viewIcSt11char_traitsIcEEPNSt7__cxx1112basic_stringIcS2_SaIcEEE(
          text, error);
  const bool root = span.root();
  const double us = span.End();
  if (root) {
    vbrbench::UpdateRecord(vbrbench::t_state.last_decoded_id,
                           [us](vbrbench::ServerRecord& r) { r.parse_us = us; });
  }
  return parsed;
}

VBRBENCH_WRAP(vbr::CanonicalQuery, _ZN3vbr17CanonicalizeQueryERKNS_16ConjunctiveQueryE,
              const vbr::ConjunctiveQuery& query) {
  Span span(Fn::kCanonicalize);
  return __real__ZN3vbr17CanonicalizeQueryERKNS_16ConjunctiveQueryE(query);
}

VBRBENCH_WRAP(vbr::ConjunctiveQuery, _ZN3vbr8MinimizeERKNS_16ConjunctiveQueryEPb,
              const vbr::ConjunctiveQuery& query, bool* complete) {
  Span span(Fn::kMinimize);
  return __real__ZN3vbr8MinimizeERKNS_16ConjunctiveQueryEPb(query, complete);
}

VBRBENCH_WRAP(vbr::PlanCache::EntryPtr,
              _ZN3vbr9PlanCache6LookupERKNS_16QueryFingerprintENS_9CostModelERKNS_16ConjunctiveQueryEPSt8optionalINS_12SubstitutionEEmm,
              vbr::PlanCache* self, const vbr::QueryFingerprint& fp,
              vbr::CostModel model, const vbr::ConjunctiveQuery& minimized,
              std::optional<vbr::Substitution>* fallback, uint64_t epoch,
              uint64_t delta_epoch) {
  Span span(Fn::kCacheLookup);
  return __real__ZN3vbr9PlanCache6LookupERKNS_16QueryFingerprintENS_9CostModelERKNS_16ConjunctiveQueryEPSt8optionalINS_12SubstitutionEEmm(
      self, fp, model, minimized, fallback, epoch, delta_epoch);
}

namespace {
void NoteCoreCover(const Span& span, const vbr::CoreCoverResult& result) {
  if (!span.active()) return;
  vbrbench::RequestTrace* t = span.trace();
  t->view_tuples += result.stats.num_view_tuples;
  t->tuple_cores += result.stats.num_nonempty_cores;
  t->rewritings += result.rewritings.size();
  t->candidate_views += result.stats.num_candidate_views;
  t->catalog_views += result.stats.num_views;
}
}  // namespace

VBRBENCH_WRAP(vbr::CoreCoverResult,
              _ZN3vbr9CoreCoverERKNS_16ConjunctiveQueryERKSt6vectorIS0_SaIS0_EERKNS_16CoreCoverOptionsE,
              const vbr::ConjunctiveQuery& query, const vbr::ViewSet& views,
              const vbr::CoreCoverOptions& options) {
  Span span(Fn::kCoreCover);
  vbr::CoreCoverResult result =
      __real__ZN3vbr9CoreCoverERKNS_16ConjunctiveQueryERKSt6vectorIS0_SaIS0_EERKNS_16CoreCoverOptionsE(
          query, views, options);
  NoteCoreCover(span, result);
  return result;
}

VBRBENCH_WRAP(vbr::CoreCoverResult,
              _ZN3vbr13CoreCoverStarERKNS_16ConjunctiveQueryERKSt6vectorIS0_SaIS0_EERKNS_16CoreCoverOptionsE,
              const vbr::ConjunctiveQuery& query, const vbr::ViewSet& views,
              const vbr::CoreCoverOptions& options) {
  Span span(Fn::kCoreCoverStar);
  vbr::CoreCoverResult result =
      __real__ZN3vbr13CoreCoverStarERKNS_16ConjunctiveQueryERKSt6vectorIS0_SaIS0_EERKNS_16CoreCoverOptionsE(
          query, views, options);
  NoteCoreCover(span, result);
  return result;
}

VBRBENCH_WRAP(vbr::FilterAdvice,
              _ZN3vbr13AdviseFiltersERKNS_16ConjunctiveQueryERKSt6vectorINS_4AtomESaIS4_EERKNS_8DatabaseE,
              const vbr::ConjunctiveQuery& rewriting,
              const std::vector<vbr::Atom>& candidates,
              const vbr::Database& view_db) {
  Span span(Fn::kAdviseFilters);
  vbr::FilterAdvice advice =
      __real__ZN3vbr13AdviseFiltersERKNS_16ConjunctiveQueryERKSt6vectorINS_4AtomESaIS4_EERKNS_8DatabaseE(
          rewriting, candidates, view_db);
  if (span.active()) {
    // Every DP the advisor runs is a child span: one for the base cost,
    // then one per candidate filter it tries.
    const uint32_t dps = span.child_calls();
    span.trace()->filter_trials += dps > 0 ? dps - 1 : 0;
    span.trace()->filters_added += advice.filters_added.size();
  }
  return advice;
}

VBRBENCH_WRAP(vbr::M2OptimizationResult,
              _ZN3vbr15OptimizeOrderM2ERKNS_16ConjunctiveQueryERKNS_8DatabaseERKNS_12TraceContextE,
              const vbr::ConjunctiveQuery& rewriting,
              const vbr::Database& view_db, const vbr::TraceContext& trace) {
  Span span(Fn::kOptimizeM2);
  vbr::M2OptimizationResult result =
      __real__ZN3vbr15OptimizeOrderM2ERKNS_16ConjunctiveQueryERKNS_8DatabaseERKNS_12TraceContextE(
          rewriting, view_db, trace);
  if (span.active()) span.trace()->subsets_costed += result.subsets_costed;
  return result;
}

VBRBENCH_WRAP(vbr::M3OptimizationResult,
              _ZN3vbr10OptimizeM3ERKNS_16ConjunctiveQueryES2_RKSt6vectorIS0_SaIS0_EERKNS_8DatabaseERKNS_12TraceContextE,
              const vbr::ConjunctiveQuery& rewriting,
              const vbr::ConjunctiveQuery& query, const vbr::ViewSet& views,
              const vbr::Database& view_db, const vbr::TraceContext& trace) {
  Span span(Fn::kOptimizeM3);
  vbr::M3OptimizationResult result =
      __real__ZN3vbr10OptimizeM3ERKNS_16ConjunctiveQueryES2_RKSt6vectorIS0_SaIS0_EERKNS_8DatabaseERKNS_12TraceContextE(
          rewriting, query, views, view_db, trace);
  if (span.active()) span.trace()->m3_plans += result.plans_evaluated;
  return result;
}

VBRBENCH_WRAP(vbr::PlanExecution, _ZN3vbr11ExecutePlanERKNS_12PhysicalPlanERKNS_8DatabaseE,
              const vbr::PhysicalPlan& plan, const vbr::Database& view_db) {
  Span span(Fn::kExecutePlan);
  return __real__ZN3vbr11ExecutePlanERKNS_12PhysicalPlanERKNS_8DatabaseE(plan,
                                                                        view_db);
}

VBRBENCH_WRAP(size_t, _ZN3vbr8JoinSizeERKSt6vectorINS_4AtomESaIS1_EERKNS_8DatabaseE,
              const std::vector<vbr::Atom>& atoms, const vbr::Database& db) {
  Span span(Fn::kJoinSize);
  const size_t rows =
      __real__ZN3vbr8JoinSizeERKSt6vectorINS_4AtomESaIS1_EERKNS_8DatabaseE(atoms,
                                                                         db);
  if (span.active()) span.trace()->join_rows += rows;
  return rows;
}

VBRBENCH_WRAP(std::optional<vbr::EquivalenceCertificate>,
              _ZN3vbr26CertifyEquivalentRewritingERKNS_16ConjunctiveQueryES2_RKSt6vectorIS0_SaIS0_EE,
              const vbr::ConjunctiveQuery& rewriting,
              const vbr::ConjunctiveQuery& query, const vbr::ViewSet& views) {
  Span span(Fn::kCertify);
  return __real__ZN3vbr26CertifyEquivalentRewritingERKNS_16ConjunctiveQueryES2_RKSt6vectorIS0_SaIS0_EE(
      rewriting, query, views);
}

VBRBENCH_WRAP(bool,
              _ZN3vbr17VerifyCertificateERKNS_22EquivalenceCertificateERKSt6vectorINS_16ConjunctiveQueryESaIS4_EEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
              const vbr::EquivalenceCertificate& certificate,
              const vbr::ViewSet& views, std::string* error) {
  Span span(Fn::kVerify);
  return __real__ZN3vbr17VerifyCertificateERKNS_22EquivalenceCertificateERKSt6vectorINS_16ConjunctiveQueryESaIS4_EEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      certificate, views, error);
}

VBRBENCH_WRAP(vbr::net::DecodeStatus,
              _ZN3vbr3net17DecodePlanRequestESt17basic_string_viewIcSt11char_traitsIcEEPNS0_16PlanRequestFrameE,
              std::string_view payload, vbr::net::PlanRequestFrame* out) {
  Span span(Fn::kDecodeRequest);
  const vbr::net::DecodeStatus status =
      __real__ZN3vbr3net17DecodePlanRequestESt17basic_string_viewIcSt11char_traitsIcEEPNS0_16PlanRequestFrameE(
          payload, out);
  const bool root = span.root();
  const double us = span.End();
  if (root) {
    const int64_t id = static_cast<int64_t>(out->request_id);
    vbrbench::t_state.last_decoded_id = id;
    vbrbench::UpdateRecord(id,
                           [us](vbrbench::ServerRecord& r) { r.decode_us = us; });
  }
  return status;
}

VBRBENCH_WRAP(void,
              _ZN3vbr3net18EncodePlanResponseERKNS0_17PlanResponseFrameEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
              const vbr::net::PlanResponseFrame& frame, std::string* out) {
  Span span(Fn::kEncodeResponse);
  __real__ZN3vbr3net18EncodePlanResponseERKNS0_17PlanResponseFrameEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
      frame, out);
  const bool root = span.root();
  const double us = span.End();
  if (root) {
    vbrbench::ThreadState& s = vbrbench::t_state;
    vbrbench::UpdateRecord(static_cast<int64_t>(frame.request_id),
                           [us, &s](vbrbench::ServerRecord& r) {
                             r.encode_us = us;
                             if (s.has_last_plan) {
                               r.plan = s.last_plan;
                               r.planned = true;
                             }
                           });
    s.has_last_plan = false;
  }
}
