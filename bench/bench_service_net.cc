// End-to-end saturation curve for the network front end.
//
// Starts an in-process vbr stack — generated workload, ViewPlanner,
// PlanningService, PlanServer on an ephemeral loopback port — and drives it
// with the shared open-loop load driver (net/load_driver.h) at a sweep of
// offered rates and connection counts.  For each cell it reports achieved
// qps, p50/p99 latency, and the shed+rejected share, which is the
// saturation table recorded in EXPERIMENTS.md "Serving plans over the
// wire": below saturation the achieved rate tracks the offered rate and
// p99 stays flat; past it, admission control sheds load and p99 plateaus
// at the deadline instead of growing without bound.
//
// A plain main (not google-benchmark): each cell is one timed open-loop
// run, and the driver already measures everything we report.
//
// Usage: bench_service_net [--requests N] [--workers N] [--queue N]
//                          [--deadline-ms MS]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cq/rename.h"
#include "cq/substitution.h"
#include "engine/materialize.h"
#include "net/load_driver.h"
#include "planner/planner.h"
#include "planner/service.h"
#include "server/plan_server.h"
#include "workload/data_gen.h"
#include "workload/generator.h"

namespace vbr {
namespace {

int Run(size_t requests_per_cell, size_t workers, size_t max_queue,
        double deadline_ms) {
  // Same workload shape as bench_service: a star query over 50 views, big
  // enough that a cold plan costs ~28 ms.  The cache is enabled and warmed,
  // so the steady state is cache-hit re-costing and re-certification (what
  // a warm service runs) — roughly 25 ms/plan, which puts the two-worker
  // capacity near 80 plans/s and makes the sweep below bracket saturation.
  WorkloadConfig wc;
  wc.shape = QueryShape::kStar;
  wc.num_query_subgoals = 8;
  wc.num_views = 50;
  wc.seed = 3;
  Workload workload = GenerateWorkload(wc);
  DataConfig dc;
  dc.rows_per_relation = 20;
  dc.domain_size = 6;
  dc.seed = 103;
  const Database base = GenerateBaseData(workload.query, workload.views, dc);

  ViewPlanner planner(workload.views, MaterializeViews(workload.views, base));
  (void)planner.Plan(workload.query, CostModel::kM2);  // warm the cache

  // 16 renamed variants of the query: isomorphic, so they share one plan
  // cache entry, but they exercise the full wire + parse + admission path.
  std::vector<std::string> queries;
  for (size_t i = 0; i < 16; ++i) {
    Substitution renaming;
    queries.push_back(
        RenameVariablesApart(workload.query, "N" + std::to_string(i),
                             &renaming)
            .ToString());
  }

  // Rates chosen around the ~80 plans/s two-worker capacity: 25 and 50 sit
  // below it (no shedding expected), 200 is past the knee, flood shows the
  // admission-control plateau.
  const size_t connection_counts[] = {1, 4, 16};
  const double qps_sweep[] = {25, 50, 200, 0 /* flood */};

  std::printf(
      "# bench_service_net: workers=%zu queue=%zu deadline_ms=%.0f "
      "requests/cell=%zu\n",
      workers, max_queue, deadline_ms, requests_per_cell);
  std::printf(
      "%-6s %-10s %10s %10s %10s %8s %8s %8s %8s\n", "conns", "offered",
      "achieved", "p50_ms", "p99_ms", "ok", "rej", "shed", "shed%");
  for (const size_t conns : connection_counts) {
    for (const double qps : qps_sweep) {
      // A fresh service + server per cell: cells must not contaminate each
      // other through the circuit breaker's state or the serve-time EWMA
      // (a cell that follows a flood would otherwise start with the
      // breaker open and shed traffic it could easily serve).  The warmed
      // planner (and its plan cache) is shared — that is the steady state
      // being measured.
      PlanningService::Options service_options;
      service_options.num_workers = workers;
      service_options.max_queue = max_queue;
      PlanningService service(&planner, service_options);
      server::PlanServerOptions server_options;
      server::PlanServer server(&service, server_options);
      std::string error;
      if (!server.Start(&error)) {
        std::fprintf(stderr, "bench_service_net: start: %s\n", error.c_str());
        return 1;
      }

      net::LoadDriverOptions load;
      load.port = server.binary_port();
      load.connections = conns;
      load.qps = qps;
      // Low-rate cells would take minutes at the full request count; cap
      // each paced cell near ~6 seconds of sending while keeping at least
      // 150 samples for the percentiles.  Flood cells use the full count.
      load.total_requests =
          qps > 0 ? std::min(requests_per_cell,
                             std::max<size_t>(150, static_cast<size_t>(qps) * 6))
                  : requests_per_cell;
      load.queries = queries;
      load.request.model = CostModel::kM2;
      load.request.deadline_ms = deadline_ms;
      net::LoadReport report;
      if (!net::RunLoad(load, &report, &error)) {
        std::fprintf(stderr, "bench_service_net: %s\n", error.c_str());
        return 1;
      }
      const double shed_share =
          report.received > 0
              ? 100.0 * static_cast<double>(report.shed_or_rejected()) /
                    static_cast<double>(report.received)
              : 0;
      char offered[32];
      if (qps > 0) {
        std::snprintf(offered, sizeof(offered), "%.0f", qps);
      } else {
        std::snprintf(offered, sizeof(offered), "flood");
      }
      std::printf("%-6zu %-10s %10.0f %10.2f %10.2f %8zu %8zu %8zu %7.1f%%\n",
                  conns, offered, report.achieved_qps, report.p50_ms,
                  report.p99_ms, report.ok(), report.by_status[1],
                  report.by_status[2], shed_share);
      if (report.lost != 0 || report.duplicated != 0) {
        std::fprintf(stderr,
                     "bench_service_net: FAIL lost=%zu duplicated=%zu\n",
                     report.lost, report.duplicated);
        return 2;
      }
      server.Stop();
      service.Shutdown();
    }
  }
  return 0;
}

}  // namespace
}  // namespace vbr

int main(int argc, char** argv) {
  size_t requests = 2000;
  size_t workers = 2;
  size_t max_queue = 64;
  double deadline_ms = 250;
  for (int i = 1; i < argc; ++i) {
    auto NeedsValue = [&]() -> const char* {
      if (++i >= argc) {
        std::fprintf(stderr, "bench_service_net: flag needs a value\n");
        std::exit(1);
      }
      return argv[i];
    };
    if (std::strcmp(argv[i], "--requests") == 0) {
      requests = static_cast<size_t>(std::atoi(NeedsValue()));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      workers = static_cast<size_t>(std::atoi(NeedsValue()));
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      max_queue = static_cast<size_t>(std::atoi(NeedsValue()));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      deadline_ms = std::atof(NeedsValue());
    } else {
      std::fprintf(stderr, "bench_service_net: unknown flag %s\n", argv[i]);
      return 1;
    }
  }
  return vbr::Run(requests, workers, max_queue, deadline_ms);
}
