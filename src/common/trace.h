#ifndef VBR_COMMON_TRACE_H_
#define VBR_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vbr {

// Structured stage tracing for the planning pipeline.
//
// A caller that wants to see WHY a plan came out the way it did passes a
// TraceSink into the entry point (ViewPlanner::Plan, CoreCover,
// OptimizeOrderM2, ...); the pipeline then emits a tree of scoped spans —
// one per stage, with start/stop timestamps, the emitting thread, and
// key-value attributes — into the sink. With no sink attached every span is
// inert: the TraceSpan constructor sees the null sink and returns before
// touching the clock, so the traced code paths cost one predictable branch
// (the "null-sink early return" flavor of zero overhead; see DESIGN.md
// "Observability" for measurements).
//
// Spans form an explicit tree: a child is opened from its parent span (or
// from a TraceContext carrying the parent's id across a call boundary), so
// the hierarchy survives hops between pool threads, where thread-local
// nesting would not.

// A finished span as delivered to the sink.
struct TraceEvent {
  // Identifier of this span, unique within its sink, and of the enclosing
  // span (0 = root).
  uint64_t id = 0;
  uint64_t parent_id = 0;
  std::string name;
  // Nanoseconds since the sink-defined epoch (MemoryTraceSink: its
  // construction time).
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  // Hash of the emitting std::thread::id (stable within a process run).
  uint64_t thread_id = 0;
  std::vector<std::pair<std::string, std::string>> attributes;
};

// Receives finished spans. Implementations must tolerate concurrent
// OnSpanEnd calls: concurrent requests may share one sink.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // Called once per span, at scope exit. Children finish before their
  // parent, so a sink sees leaves first.
  virtual void OnSpanEnd(TraceEvent event) = 0;

  // Issues a fresh span id (ids are per-sink, starting at 1).
  uint64_t NextSpanId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Nanoseconds since this sink's epoch.
  virtual uint64_t NowNs() const;

 protected:
  TraceSink();

 private:
  std::atomic<uint64_t> next_id_{1};
  uint64_t epoch_ns_ = 0;
};

// A (sink, parent span id) pair for handing a trace position across a call
// boundary, e.g. from the planner into CoreCover via CoreCoverOptions. A
// default-constructed context is inert.
struct TraceContext {
  TraceSink* sink = nullptr;
  uint64_t parent_id = 0;

  bool active() const { return sink != nullptr; }
};

// RAII scoped span. Opening with a null sink (or inert context) produces an
// inert span: every member function early-returns without reading the clock
// or allocating.
class TraceSpan {
 public:
  // A root span (parent id 0) on `sink`.
  TraceSpan(TraceSink* sink, std::string_view name);
  // A child of `parent` (inert if `parent` is inert).
  TraceSpan(const TraceSpan& parent, std::string_view name);
  // A child of the span identified by `context`.
  TraceSpan(const TraceContext& context, std::string_view name);

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan();

  bool active() const { return sink_ != nullptr; }
  uint64_t id() const { return id_; }

  // The context under which to open children of this span.
  TraceContext context() const { return TraceContext{sink_, id_}; }

  // Attaches a key-value attribute. Values are stored as strings; numeric
  // overloads format on the caller's thread (only when active).
  void AddAttribute(std::string_view key, std::string_view value);
  void AddAttribute(std::string_view key, const char* value);
  void AddAttribute(std::string_view key, uint64_t value);
  void AddAttribute(std::string_view key, double value);
  void AddAttribute(std::string_view key, bool value);

  // Ends the span now (idempotent; the destructor is then a no-op).
  void End();

 private:
  TraceSpan(TraceSink* sink, uint64_t parent_id, std::string_view name);

  TraceSink* sink_ = nullptr;
  uint64_t id_ = 0;
  TraceEvent event_;
};

// A sink that buffers spans in memory and can render them as an indented
// text tree or as JSON. Thread-safe.
class MemoryTraceSink : public TraceSink {
 public:
  MemoryTraceSink() = default;

  void OnSpanEnd(TraceEvent event) override;

  // Snapshot of the finished spans, in completion order.
  std::vector<TraceEvent> spans() const;

  size_t size() const;
  void Clear();

  // Indented span tree, one line per span:
  //   plan  2.31ms  [model=M2 cache=miss]
  //     core_cover  2.02ms
  //       minimize  0.08ms
  // Roots are spans whose parent never arrived (or parent_id 0).
  std::string ToText() const;

  // JSON array of span objects: [{"id":1,"parent":0,"name":"plan",
  // "start_ns":..,"end_ns":..,"thread":..,"attributes":{...}},...].
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

}  // namespace vbr

#endif  // VBR_COMMON_TRACE_H_
