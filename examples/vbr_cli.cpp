// vbr_cli — command-line front end for the rewriting generator.
//
// Reads a datalog program whose FIRST rule is the query and whose remaining
// rules are view definitions, then prints the globally-minimal rewritings
// (default) or the full M2 search space. With --data, additionally
// materializes the views over the given ground facts, picks a cost-based
// physical plan through the ViewPlanner facade, executes it, and prints the
// answer.
//
// Usage:
//   vbr_cli [--all-minimal] [--show-tuples] [--no-grouping] [--no-cache]
//           [--explain[=json]] [--trace]
//           [--deadline-ms MS] [--work-budget N] [--options JSON]
//           [--data FACTS_FILE [--model m1|m2|m3]]
//           [--replay QUERIES_FILE [--qps N] [--concurrency K]
//            [--connect HOST:PORT]] [file]
//
// --deadline-ms bounds the run by a wall-clock deadline and --work-budget by
// a deterministic work-unit budget (see DESIGN.md "Resource governance");
// both apply to the rewriting enumeration and to the planner. All request
// knobs (--model, --deadline-ms, --work-budget) land in one transport-
// neutral PlanRequestOptions (planner/request_options.h) — the same struct
// the binary wire protocol and the HTTP /plan endpoint consume — and
// --options JSON sets it wholesale in that shared dialect, e.g.
// --options '{"model":"m3","deadline_ms":50,"work_limit":100000}'. When a budget
// runs out the run winds down cooperatively: partial results are printed
// with a "budget exhausted" note instead of hanging or crashing.
//
// --replay switches to batch mode: QUERIES_FILE holds one query rule per
// line, each submitted to a PlanningService (planner/service.h) wrapping the
// program's views — --concurrency K worker threads, --qps N paced
// submission (0 = as fast as possible), --deadline-ms as the per-request
// deadline. The run ends by printing the per-status totals and the
// service's metrics snapshot (admission, shedding, breaker state).
// The replay file may also be a BINARY request log captured with
// `vbr_server --request-log` (detected by the VBIN magic): each recorded
// request is then re-submitted with the options it was recorded with, so
// production traffic replays deterministically.  A rotated log set
// (file.2, file.1, file) replays in capture order when the base path is
// given and rotated siblings exist.
//
// --replay --connect HOST:PORT replays over the wire instead: each request
// goes to a running vbr_server through the resilient client
// (net/resilient_client.h) — connect/request timeouts, reconnects, and
// idempotent retries — so a replay survives a flaky network or a server
// restart mid-run.
//
// --explain prints the planner's account of its decision (candidates with
// costs and why they lost, the cache disposition, and a per-cost-model
// breakdown of the winner); --explain=json emits the same as one JSON
// object. --trace dumps the structured span tree of the planning call to
// stderr. Both plan against the --data instances when given, else against
// empty view instances (costs are then all zero, but the logical
// explanation is still meaningful).
//
// With no file, reads the program from standard input. Example program:
//
//   q1(S,C) :- car(M,a), loc(a,C), part(S,M,C).
//   v1(M,D,C) :- car(M,D), loc(D,C).
//   v2(S,M,C) :- part(S,M,C).
//   v4(M,D,C,S) :- car(M,D), loc(D,C), part(S,M,C).
//
// Example facts file:
//
//   car(toyota, a).  loc(a, sf).  part(store1, toyota, sf).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/timer.h"
#include "common/trace.h"
#include "cq/parser.h"
#include "engine/io.h"
#include "engine/materialize.h"
#include "net/resilient_client.h"
#include "planner/planner.h"
#include "planner/request_options.h"
#include "planner/service.h"
#include "planner/snapshot.h"
#include "rewrite/core_cover.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "vbr_cli: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vbr;

  bool all_minimal = false;
  bool show_tuples = false;
  bool enable_cache = true;
  enum class ExplainMode { kOff, kText, kJson };
  ExplainMode explain_mode = ExplainMode::kOff;
  bool trace = false;
  PlanRequestOptions request_options;
  CoreCoverOptions options;
  const char* path = nullptr;
  const char* data_path = nullptr;
  const char* replay_path = nullptr;
  const char* connect_spec = nullptr;
  double qps = 0;
  size_t concurrency = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--all-minimal") == 0) {
      all_minimal = true;
    } else if (std::strcmp(argv[i], "--show-tuples") == 0) {
      show_tuples = true;
    } else if (std::strcmp(argv[i], "--no-grouping") == 0) {
      options.group_views = false;
      options.group_view_tuples = false;
    } else if (std::strcmp(argv[i], "--no-cache") == 0) {
      enable_cache = false;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (++i >= argc) return Fail("--deadline-ms needs a millisecond count");
      char* end = nullptr;
      request_options.deadline_ms = std::strtod(argv[i], &end);
      if (end == argv[i] || *end != '\0' || request_options.deadline_ms <= 0) {
        return Fail(std::string("--deadline-ms needs a positive number, got ") +
                    argv[i]);
      }
    } else if (std::strcmp(argv[i], "--work-budget") == 0) {
      if (++i >= argc) return Fail("--work-budget needs a work-unit count");
      char* end = nullptr;
      request_options.work_limit = std::strtoull(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0' || request_options.work_limit == 0) {
        return Fail(std::string("--work-budget needs a positive count, got ") +
                    argv[i]);
      }
    } else if (std::strcmp(argv[i], "--options") == 0) {
      if (++i >= argc) return Fail("--options needs a JSON object");
      std::string options_error;
      const auto parsed =
          PlanRequestOptions::FromJsonText(argv[i], &options_error);
      if (!parsed.has_value()) {
        return Fail("--options: " + options_error);
      }
      request_options = *parsed;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain_mode = ExplainMode::kText;
    } else if (std::strcmp(argv[i], "--explain=json") == 0) {
      explain_mode = ExplainMode::kJson;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--data") == 0) {
      if (++i >= argc) return Fail("--data needs a file argument");
      data_path = argv[i];
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      if (++i >= argc) return Fail("--replay needs a queries file");
      replay_path = argv[i];
    } else if (std::strcmp(argv[i], "--connect") == 0) {
      if (++i >= argc) return Fail("--connect needs HOST:PORT");
      connect_spec = argv[i];
    } else if (std::strcmp(argv[i], "--qps") == 0) {
      if (++i >= argc) return Fail("--qps needs a rate (0 = unpaced)");
      char* end = nullptr;
      qps = std::strtod(argv[i], &end);
      if (end == argv[i] || *end != '\0' || qps < 0) {
        return Fail(std::string("--qps needs a non-negative rate, got ") +
                    argv[i]);
      }
    } else if (std::strcmp(argv[i], "--concurrency") == 0) {
      if (++i >= argc) return Fail("--concurrency needs a worker count");
      char* end = nullptr;
      const unsigned long k = std::strtoul(argv[i], &end, 10);
      if (end == argv[i] || *end != '\0' || k == 0) {
        return Fail(
            std::string("--concurrency needs a positive count, got ") +
            argv[i]);
      }
      concurrency = static_cast<size_t>(k);
    } else if (std::strcmp(argv[i], "--model") == 0) {
      if (++i >= argc) return Fail("--model needs m1, m2, or m3");
      if (!CostModelFromName(argv[i], &request_options.model)) {
        return Fail("--model needs m1, m2, or m3");
      }
    } else if (argv[i][0] == '-') {
      return Fail(std::string("unknown flag ") + argv[i]);
    } else {
      path = argv[i];
    }
  }

  std::string text;
  if (path != nullptr) {
    std::ifstream in(path);
    if (!in) return Fail(std::string("cannot open ") + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  } else {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  }

  std::string error;
  auto program = ParseProgram(text, &error);
  if (!program.has_value()) return Fail("parse error: " + error);
  if (program->size() < 2) {
    return Fail("need a query rule followed by at least one view rule");
  }
  const ConjunctiveQuery query = (*program)[0];
  const ViewSet views(program->begin() + 1, program->end());
  if (!query.IsSafe()) return Fail("query is unsafe");
  for (const View& v : views) {
    if (!v.IsSafe()) return Fail("unsafe view: " + v.ToString());
  }

  // --replay: batch mode. Every query in the replay file is submitted to a
  // PlanningService over this program's views; the one-shot enumeration and
  // printing below are skipped entirely.
  if (replay_path != nullptr) {
    std::ifstream replay_in(replay_path, std::ios::binary);
    if (!replay_in) return Fail(std::string("cannot open ") + replay_path);
    std::stringstream replay_buffer;
    replay_buffer << replay_in.rdbuf();
    const std::string replay_bytes = replay_buffer.str();

    // The replay stream: either a text file of query rules (each submitted
    // with the CLI's options) or a binary request log captured by
    // `vbr_server --request-log` (each record re-submitted with the
    // OPTIONS IT WAS RECORDED WITH, for a deterministic re-run). Binary
    // logs are length-prefixed VBIN frames, so the magic sits at offset 4.
    std::vector<ConjunctiveQuery> replay_list;
    std::vector<PlanRequestOptions> replay_options;
    bool is_binary_log =
        replay_bytes.size() >= 8 && replay_bytes.compare(4, 4, "VBIN") == 0;
    if (!is_binary_log && replay_bytes.empty()) {
      // A crash right after rotation leaves an empty live file; the
      // newest rotated sibling carries the magic instead.
      std::ifstream sibling_in(std::string(replay_path) + ".1",
                               std::ios::binary);
      if (sibling_in) {
        char head[8] = {0};
        sibling_in.read(head, sizeof(head));
        is_binary_log = sibling_in.gcount() == 8 &&
                        std::memcmp(head + 4, "VBIN", 4) == 0;
      }
    }
    if (is_binary_log) {
      // Read the whole rotated set (path.K .. path.1, then the live file)
      // so a rotated capture replays in order from just the base path.
      std::vector<RequestLogRecord> records;
      size_t truncated = 0;
      const vbin::Status status =
          ReadRequestLogSet(replay_path, &records, &truncated);
      if (!status.ok()) return Fail("replay log: " + status.error);
      if (truncated > 0) {
        std::fprintf(stderr,
                     "vbr_cli: replay log has a torn tail (%zu byte(s) "
                     "dropped)\n",
                     truncated);
      }
      if (records.empty()) return Fail("replay log has no records");
      for (RequestLogRecord& record : records) {
        replay_list.push_back(std::move(record.query));
        replay_options.push_back(record.options);
      }
    } else {
      std::string replay_error;
      const auto parsed = ParseProgram(replay_bytes, &replay_error);
      if (!parsed.has_value()) {
        return Fail("replay parse error: " + replay_error);
      }
      if (parsed->empty()) return Fail("replay file has no queries");
      replay_list = *parsed;
      replay_options.assign(replay_list.size(), request_options);
    }
    for (const ConjunctiveQuery& q : replay_list) {
      if (!q.IsSafe()) return Fail("unsafe replay query: " + q.ToString());
    }

    // --connect: replay over the wire through the resilient client instead
    // of an in-process service.  Workers stripe the request ids; --qps
    // paces on the ABSOLUTE schedule (request i due at start + i/qps).  A
    // request whose retry budget runs out counts as lost and fails the
    // run; rejected/shed responses are the server's business and do not.
    if (connect_spec != nullptr) {
      const char* colon = std::strrchr(connect_spec, ':');
      if (colon == nullptr || colon == connect_spec || colon[1] == '\0') {
        return Fail("--connect needs HOST:PORT");
      }
      const std::string host(connect_spec, colon - connect_spec);
      const int port = std::atoi(colon + 1);
      if (port <= 0 || port > 65535) {
        return Fail(std::string("--connect: bad port in ") + connect_spec);
      }

      const double inter_arrival_ms = qps > 0 ? 1000.0 / qps : 0;
      const size_t workers =
          std::max<size_t>(1, std::min(concurrency, replay_list.size()));
      std::atomic<size_t> by_status[7] = {};
      std::atomic<size_t> lost{0}, retries{0}, reconnects{0}, timeouts{0};
      const auto start = std::chrono::steady_clock::now();
      const Timer wall;
      std::vector<std::thread> threads;
      threads.reserve(workers);
      for (size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
          net::ResilientClientOptions copts;
          copts.host = host;
          copts.port = static_cast<uint16_t>(port);
          copts.backoff_seed = 0x9e3779b97f4a7c15ULL * (w + 1);
          net::ResilientClient client(copts);
          for (size_t id = w; id < replay_list.size(); id += workers) {
            if (inter_arrival_ms > 0) {
              std::this_thread::sleep_until(
                  start +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          inter_arrival_ms * static_cast<double>(id))));
            }
            net::PlanRequestFrame request;
            request.request_id = static_cast<uint64_t>(id) + 1;
            request.options = replay_options[id];
            request.query_text = replay_list[id].ToString();
            net::PlanResponseFrame response;
            std::string call_error;
            if (!client.Call(request, &response, &call_error)) {
              lost.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            const size_t s = static_cast<size_t>(response.status);
            if (s < 7) by_status[s].fetch_add(1, std::memory_order_relaxed);
          }
          const net::ResilientClient::Stats cs = client.stats();
          retries.fetch_add(cs.retries, std::memory_order_relaxed);
          reconnects.fetch_add(cs.reconnects, std::memory_order_relaxed);
          timeouts.fetch_add(cs.timeouts, std::memory_order_relaxed);
        });
      }
      for (std::thread& t : threads) t.join();
      const double elapsed_ms = wall.ElapsedMillis();
      const size_t total = replay_list.size();
      std::printf(
          "%% replayed %zu request(s) over the wire to %s in %.2f ms "
          "(%.1f qps achieved, %zu worker(s))\n",
          total, connect_spec, elapsed_ms,
          elapsed_ms > 0
              ? 1000.0 * static_cast<double>(total - lost.load()) / elapsed_ms
              : 0.0,
          workers);
      std::printf("%% ok %zu  rejected %zu  shed %zu  failed %zu  "
                  "bad_request %zu  unknown_handle %zu  lost %zu\n",
                  by_status[0].load(), by_status[1].load(),
                  by_status[2].load(), by_status[3].load(),
                  by_status[4].load() + by_status[5].load(),
                  by_status[6].load(), lost.load());
      std::printf("%% transport: retries %zu  reconnects %zu  timeouts %zu\n",
                  retries.load(), reconnects.load(), timeouts.load());
      const size_t hard_failures = by_status[3].load() + by_status[4].load() +
                                   by_status[5].load() + by_status[6].load();
      return (lost.load() != 0 || hard_failures != 0) ? 2 : 0;
    }

    Database base;
    if (data_path != nullptr) {
      std::string data_error;
      auto loaded = LoadDatabaseFile(data_path, &data_error);
      if (!loaded.has_value()) return Fail(data_error);
      base = std::move(*loaded);
    }
    ViewPlanner::Options planner_options;
    planner_options.core_cover = options;
    planner_options.enable_cache = enable_cache;
    ViewPlanner planner(views, MaterializeViews(views, base), planner_options);

    PlanningService::Options service_options;
    service_options.num_workers = concurrency;
    PlanningService service(&planner, service_options);

    const double inter_arrival_ms = qps > 0 ? 1000.0 / qps : 0;
    const Timer wall;
    std::vector<std::future<PlanningService::PlanResponse>> futures;
    futures.reserve(replay_list.size());
    for (size_t i = 0; i < replay_list.size(); ++i) {
      PlanningService::PlanRequest request;
      request.query = replay_list[i];
      // The unified options carry the model, the per-request deadline, and
      // the work/memory budget in one struct; the service derives its
      // admission check and attempt governor from them. A binary-log
      // replay uses each record's RECORDED options instead of the CLI's.
      request.options = replay_options[i];
      futures.push_back(service.Submit(std::move(request)));
      if (inter_arrival_ms > 0 && i + 1 < replay_list.size()) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(inter_arrival_ms));
      }
    }
    size_t ok = 0, rejected = 0, shed = 0, cache_hits = 0;
    for (auto& f : futures) {
      const auto response = f.get();
      switch (response.status) {
        case PlanningService::ServiceStatus::kOk:
          ++ok;
          if (response.result.cache_hit) ++cache_hits;
          break;
        case PlanningService::ServiceStatus::kRejected:
          ++rejected;
          break;
        case PlanningService::ServiceStatus::kShed:
          ++shed;
          break;
      }
    }
    service.Shutdown();
    const double elapsed_ms = wall.ElapsedMillis();
    std::printf("%% replayed %zu request(s) in %.2f ms (%.1f qps achieved, "
                "concurrency %zu)\n",
                futures.size(), elapsed_ms,
                elapsed_ms > 0 ? 1000.0 * static_cast<double>(futures.size()) /
                                     elapsed_ms
                               : 0.0,
                concurrency);
    std::printf("%% ok %zu (cache hits %zu)  rejected %zu  shed %zu\n", ok,
                cache_hits, rejected, shed);
    std::printf("%s", service.stats().ToString().c_str());
    return 0;
  }

  // The standalone enumeration runs under its own governor so a --deadline-ms
  // or --work-budget bounds it exactly like the planner calls below.
  const CoreCoverResult result = [&] {
    const ScopedGovernor governed(request_options.limits());
    return all_minimal ? CoreCoverStar(query, views, options)
                       : CoreCover(query, views, options);
  }();
  const bool budget_died = result.status == CoreCoverStatus::kBudgetExhausted;
  // With --explain the planner below reports the failure (status, error)
  // in the requested format instead of a bare exit.
  if (!result.ok() && !budget_died && explain_mode == ExplainMode::kOff) {
    return Fail("unsupported query: " + result.error);
  }
  if (budget_died && explain_mode != ExplainMode::kJson) {
    std::printf("%% budget exhausted (%s at %s); results are partial\n",
                BudgetKindName(result.exhaustion.kind),
                result.exhaustion.site.c_str());
  }

  if (show_tuples && explain_mode != ExplainMode::kJson) {
    std::printf("%% view tuples (T(Q,V)) and their cores:\n");
    for (const auto& t : result.view_tuples) {
      std::printf("%%   %-20s core size %zu%s\n",
                  t.tuple.atom.ToString().c_str(), t.core.size(),
                  t.core.empty() ? " (filter candidate)" : "");
    }
  }

  // --explain=json keeps stdout machine-readable: one JSON object, no
  // human preamble.
  if ((result.ok() || budget_died) && explain_mode != ExplainMode::kJson) {
    if (!result.has_rewriting) {
      std::printf(budget_died
                      ? "%% no equivalent rewriting found within budget\n"
                      : "%% no equivalent rewriting exists\n");
      // With --explain the planner still runs below so the failure is
      // explained (status, cache disposition) instead of just exiting.
      if (explain_mode == ExplainMode::kOff) return 2;
    } else {
      std::printf("%% %zu %s rewriting(s); minimum subgoals = %zu; %.2f ms\n",
                  result.rewritings.size(),
                  all_minimal ? "minimal" : "globally-minimal",
                  result.stats.minimum_cover_size, result.stats.total_ms);
      for (const auto& p : result.rewritings) {
        std::printf("%s.\n", p.ToString().c_str());
      }
    }
  }

  // Optional execution / explanation against concrete data (empty view
  // instances when --data was not given).
  if (data_path != nullptr || explain_mode != ExplainMode::kOff || trace) {
    Database base;
    if (data_path != nullptr) {
      std::string data_error;
      auto loaded = LoadDatabaseFile(data_path, &data_error);
      if (!loaded.has_value()) return Fail(data_error);
      base = std::move(*loaded);
    }
    ViewPlanner::Options planner_options;
    planner_options.core_cover = options;
    planner_options.enable_cache = enable_cache;
    ViewPlanner planner(views, MaterializeViews(views, base),
                        planner_options);
    MemoryTraceSink sink;
    TraceSink* const sink_ptr = trace ? &sink : nullptr;
    if (explain_mode != ExplainMode::kOff) {
      const auto explanation =
          planner.Explain(query, request_options, sink_ptr);
      if (explain_mode == ExplainMode::kJson) {
        std::printf("%s\n", explanation.ToJson().c_str());
      } else {
        std::printf("%%\n%% explain:\n%s", explanation.ToText().c_str());
      }
      if (trace) {
        std::fprintf(stderr, "%s", sink.ToText().c_str());
      }
      if (!explanation.ok()) return 2;
      return 0;
    }
    const auto plan = planner.Plan(query, request_options, sink_ptr);
    if (trace) {
      std::fprintf(stderr, "%s", sink.ToText().c_str());
    }
    if (!plan.ok()) {
      return Fail(std::string("planner: ") + PlanStatusName(plan.status) +
                  (plan.error.empty() ? "" : " (" + plan.error + ")"));
    }
    if (plan.exhaustion.kind != BudgetKind::kNone) {
      std::printf("%%\n%% budget: %s budget exhausted at %s%s\n",
                  BudgetKindName(plan.exhaustion.kind),
                  plan.exhaustion.site.c_str(),
                  plan.degraded ? " (degraded plan)" : "");
    }
    std::printf("%%\n%% chosen physical plan (cost %zu):\n%%   %s\n",
                plan.choice->cost, plan.choice->physical.ToString().c_str());
    const Relation answer = planner.Execute(*plan.choice);
    std::printf("%% answer (%zu row(s)):\n", answer.size());
    for (const auto& row : answer.SortedRows()) {
      std::string line = query.head().predicate_name() + "(";
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) line += ", ";
        line += ValueToString(row[i]);
      }
      std::printf("%s).\n", line.c_str());
    }
  }
  return 0;
}
