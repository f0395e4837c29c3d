// Per-layer measurements shared by the workloads: readers of the
// program's own tracer spans, counters and run report, and the benchmark's timing
// probes of single groute entry points on a routed graph.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "groute/global_router.hpp"
#include "obs/context.hpp"
#include "obs/run_report.hpp"

namespace flowbench {

/// Summed duration (s) of the program's spans named `name`, optionally
/// only those whose argument equals `arg`.
double tracedSeconds(crp::obs::ObsContext& context, const std::string& name,
                     std::int64_t arg = -1);

/// groute.* from a finished GlobalRouter::run: initial pass and RRR
/// round spans, rerouted nets and the gr.par.* batch counters (read
/// before anything else reroutes).
void recordGlobalRoute(crp::obs::ObsContext& context,
                       const crp::groute::GlobalRouteStats& stats, Result& result);

/// crp.*, legalizer.* and ilp.* from a framework's run report.
void recordCrp(const crp::obs::RunReport& report, Result& result);

/// Times MazeRouter::routeTree on a seeded sample of nets,
/// PatternRouter::priceTree over all nets and
/// RoutingGraph::wireEdgeCost over every wire edge, against the
/// router's current graph; also records the graph's overflow.
void probeGroute(const crp::groute::GlobalRouter& router, std::uint64_t seed,
                 Result& result);

}  // namespace flowbench
