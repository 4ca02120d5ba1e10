#include "sunchase/core/planner.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "sunchase/core/metrics.h"
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

SunChasePlanner::SunChasePlanner(WorldPtr world, PlannerOptions options)
    : options_(options), solver_(std::move(world), options.mlc) {}

const ev::ConsumptionModel& SunChasePlanner::vehicle() const {
  return world()->vehicle(options_.mlc.vehicle);
}

PlanResult SunChasePlanner::plan(roadnet::NodeId origin,
                                 roadnet::NodeId destination,
                                 TimeOfDay departure) const {
  const obs::SpanTimer span("core.plan");
  detail::PlannedQuery query =
      detail::plan_query(solver_, origin, destination, departure,
                         &options_.selection, options_.query_log);
  PlanResult plan;
  plan.candidates = std::move(query.selection->candidates);
  plan.pareto_route_count = query.search.routes.size();
  plan.cluster_count = query.selection->cluster_count;
  plan.search_stats = query.search.stats;
  plan.cpu_seconds = query.cpu_seconds;
  return plan;
}

detail::PlannedQuery detail::plan_query(const MultiLabelCorrecting& solver,
                                        roadnet::NodeId origin,
                                        roadnet::NodeId destination,
                                        TimeOfDay departure,
                                        const SelectionOptions* selection,
                                        obs::QueryLog* log,
                                        std::int64_t index) {
  const auto started = Clock::now();
  const double cpu_started = obs::thread_cpu_seconds();
  const World& world = *solver.world();
  const MlcOptions& mlc = solver.options();
  // The record's identity, stamped with the snapshot this query pinned.
  const auto new_record = [&] {
    obs::QueryRecord record;
    record.mode = index < 0 ? "plan" : "batch";
    record.index = index;
    record.origin = origin;
    record.destination = destination;
    record.departure = departure.to_string();
    record.pricing = pricing_name(mlc.pricing);
    record.world_version = static_cast<std::int64_t>(world.version());
    // Joins this record to the HTTP request that planned it (same id
    // the server echoes in x-sunchase-request-id and the trace export).
    if (obs::current_trace().valid())
      record.trace_id = obs::current_trace().trace_id_hex();
    return record;
  };

  PlannedQuery query;
  try {
    query.search = solver.search(origin, destination, departure);
    if (selection != nullptr)
      query.selection = select_representative_routes(
          query.search.routes, world.solar_map(), world.vehicle(mlc.vehicle),
          departure, *selection);
  } catch (const std::exception& e) {
    if (log != nullptr) {
      obs::QueryRecord record = new_record();
      record.status = "error";
      record.error = e.what();
      record.total_seconds = seconds_since(started);
      record.cpu_ms = (obs::thread_cpu_seconds() - cpu_started) * 1000.0;
      log->write(record);
    }
    throw;
  }
  query.cpu_seconds = obs::thread_cpu_seconds() - cpu_started;
  query.wall_seconds = seconds_since(started);
  mlc_cpu_seconds(mlc.pricing).add(query.cpu_seconds);
  if (log == nullptr) return query;

  obs::QueryRecord record = new_record();
  const MlcStats& stats = query.search.stats;
  record.mlc_seconds = stats.search_seconds;
  record.total_seconds = query.wall_seconds;
  record.cpu_ms = query.cpu_seconds * 1000.0;
  record.labels_created = stats.labels_created;
  record.labels_dominated = stats.labels_dominated;
  record.queue_pops = stats.queue_pops;
  record.pareto_size = stats.pareto_size;
  record.labels_pruned_bound = stats.labels_pruned_bound;
  record.labels_merged_epsilon = stats.labels_merged_epsilon;
  record.lower_bound_seconds = stats.lower_bound_seconds;
  std::optional<RouteMetrics> best;
  if (query.selection.has_value()) {
    const SelectionResult& chosen = *query.selection;
    record.kmeans_seconds = chosen.kmeans_seconds;
    record.selection_seconds = chosen.selection_seconds;
    record.candidate_count = chosen.candidates.size();
    if (!chosen.candidates.empty())
      best = recommended(chosen.candidates).metrics;
  } else if (!query.search.routes.empty()) {
    // No selection pipeline: summarize the shortest-time Pareto route
    // (what the paper falls back to).
    const auto fastest = std::min_element(
        query.search.routes.begin(), query.search.routes.end(),
        [](const ParetoRoute& a, const ParetoRoute& b) {
          return a.cost.travel_time.value() < b.cost.travel_time.value();
        });
    record.candidate_count = query.search.routes.size();
    best = evaluate_route(world.solar_map(), world.vehicle(mlc.vehicle),
                          fastest->path, departure);
  }
  if (best.has_value()) {
    record.travel_time_s = best->travel_time.value();
    record.shaded_time_s = best->shaded_time.value();
    record.energy_out_wh = best->energy_out.value();
    record.energy_in_wh = best->energy_in.value();
  }
  log->write(record);
  return query;
}

}  // namespace sunchase::core
