#include "sunchase/core/planner.h"

#include <chrono>
#include <utility>

#include "sunchase/common/error.h"
#include "sunchase/core/world.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/obs/profiler.h"
#include "sunchase/obs/query_log.h"
#include "sunchase/obs/trace.h"

namespace sunchase::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

}  // namespace

const CandidateRoute& PlanResult::recommended() const {
  if (candidates.empty())
    throw RoutingError("PlanResult::recommended: empty plan");
  return candidates.size() > 1 ? candidates[1] : candidates[0];
}

SunChasePlanner::SunChasePlanner(WorldPtr world, PlannerOptions options)
    : options_(options), solver_(std::move(world), options.mlc) {}

const ev::ConsumptionModel& SunChasePlanner::vehicle() const {
  return world()->vehicle(options_.mlc.vehicle);
}

PlanResult SunChasePlanner::plan(roadnet::NodeId origin,
                                 roadnet::NodeId destination,
                                 TimeOfDay departure) const {
  const obs::SpanTimer span("core.plan");
  const auto started = Clock::now();
  const double cpu_started = obs::thread_cpu_seconds();
  obs::QueryLog* const log = options_.query_log;
  obs::QueryRecord record;
  if (log != nullptr) {
    record.mode = "plan";
    record.origin = origin;
    record.destination = destination;
    record.departure = departure.to_string();
    record.pricing = pricing_name(options_.mlc.pricing);
    record.world_version = static_cast<std::int64_t>(world()->version());
    // Joins this record to the HTTP request that planned it (same id
    // the server echoes in x-sunchase-request-id and the trace export).
    if (obs::current_trace().valid())
      record.trace_id = obs::current_trace().trace_id_hex();
  }

  try {
    const MlcResult search = solver_.search(origin, destination, departure);
    SelectionResult selection = detail::select_representative_routes(
        search.routes, world()->solar_map(), vehicle(), departure,
        options_.selection);

    PlanResult plan;
    plan.candidates = std::move(selection.candidates);
    plan.pareto_route_count = search.routes.size();
    plan.cluster_count = selection.cluster_count;
    plan.search_stats = search.stats;
    plan.cpu_seconds = obs::thread_cpu_seconds() - cpu_started;
    detail::mlc_cpu_seconds(options_.mlc.pricing).add(plan.cpu_seconds);

    if (log != nullptr) {
      record.mlc_seconds = search.stats.search_seconds;
      record.kmeans_seconds = selection.kmeans_seconds;
      record.selection_seconds = selection.selection_seconds;
      record.labels_created = search.stats.labels_created;
      record.labels_dominated = search.stats.labels_dominated;
      record.queue_pops = search.stats.queue_pops;
      record.pareto_size = search.stats.pareto_size;
      record.labels_pruned_bound = search.stats.labels_pruned_bound;
      record.labels_merged_epsilon = search.stats.labels_merged_epsilon;
      record.lower_bound_seconds = search.stats.lower_bound_seconds;
      record.candidate_count = plan.candidates.size();
      const RouteMetrics& best = plan.recommended().metrics;
      record.travel_time_s = best.travel_time.value();
      record.shaded_time_s = best.shaded_time.value();
      record.energy_out_wh = best.energy_out.value();
      record.energy_in_wh = best.energy_in.value();
      record.total_seconds = seconds_since(started);
      record.cpu_ms = plan.cpu_seconds * 1000.0;
      log->write(record);
    }
    return plan;
  } catch (const std::exception& e) {
    if (log != nullptr) {
      record.status = "error";
      record.error = e.what();
      record.total_seconds = seconds_since(started);
      record.cpu_ms = (obs::thread_cpu_seconds() - cpu_started) * 1000.0;
      log->write(record);
    }
    throw;
  }
}

}  // namespace sunchase::core
