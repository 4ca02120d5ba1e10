#include "sunchase/core/replanner.h"

#include <cmath>

#include "sunchase/common/error.h"
#include "sunchase/core/world.h"

namespace sunchase::core {

namespace {

/// The drive so far: its clock and the outcome it accrues into.
struct FollowState {
  TimeOfDay clock;
  DriveOutcome* outcome;
};

void traverse_edge(const World& world, const solar::PanelPowerFn& live_power,
                   std::size_t vehicle_index, roadnet::EdgeId e,
                   FollowState& state) {
  // Priced like every edge of the planner, but harvested at the live
  // panel power instead of the snapshot's.
  const EdgePrice price = detail::price_edge(
      world.solar_map(), world.vehicle(vehicle_index), e, state.clock);
  state.outcome->driven.edges.push_back(e);
  state.outcome->total_time += price.criteria.travel_time;
  state.outcome->energy_in +=
      energy(live_power(state.clock), price.solar.solar_time);
  state.outcome->energy_out += price.criteria.energy_out;
  state.clock = state.clock.advanced_by(price.criteria.travel_time);
}

/// The ephemeral planning snapshot for one (re)plan: the base world's
/// recipe with panel power replaced by the sampled constant forecast.
/// Unchanged components (graph, traffic, shading, vehicles) stay
/// shared; only the solar map and slot caches are rebuilt.
WorldPtr forecast_world(const World& base, Watts forecast) {
  WorldInit init = base.recipe();
  init.panel_power = solar::constant_panel_power(forecast);
  return World::create(std::move(init), base.version());
}

}  // namespace

DriveOutcome drive_with_replanning(const WorldPtr& world,
                                   const solar::PanelPowerFn& live_power,
                                   roadnet::NodeId origin,
                                   roadnet::NodeId destination,
                                   TimeOfDay departure,
                                   const ReplanOptions& options) {
  if (!world) throw InvalidArgument("drive_with_replanning: null world");
  if (!live_power)
    throw InvalidArgument("drive_with_replanning: null live power");
  const std::size_t vehicle = options.planner.mlc.vehicle;
  DriveOutcome outcome;
  FollowState state{departure, &outcome};
  roadnet::NodeId at = origin;
  double forecast_w = live_power(departure).value();
  TimeOfDay last_plan_time = departure;
  bool first_plan = true;

  while (at != destination) {
    // (Re)plan from the current position with the current forecast.
    const SunChasePlanner planner(forecast_world(*world, Watts{forecast_w}),
                                  options.planner);
    const PlanResult plan = planner.plan(at, destination, state.clock);
    const roadnet::Path& route = plan.recommended().route.path;
    if (!first_plan) ++outcome.replans;
    first_plan = false;

    // Follow until the live power drifts off the forecast (checked at
    // every intersection) or the route completes.
    for (const roadnet::EdgeId e : route.edges) {
      traverse_edge(*world, live_power, vehicle, e, state);
      at = world->graph().edge(e).to;
      if (at == destination) break;
      const double live_w = live_power(state.clock).value();
      const double drift =
          forecast_w > 0.0 ? std::abs(live_w - forecast_w) / forecast_w
                           : (live_w > 0.0 ? 1e9 : 0.0);
      const bool cooled_down =
          state.clock.since(last_plan_time) >= options.min_replan_interval;
      if (drift > options.power_drift_threshold && cooled_down) {
        forecast_w = live_w;
        last_plan_time = state.clock;
        break;  // re-enter the planning loop from `at`
      }
    }
  }
  return outcome;
}

DriveOutcome drive_without_replanning(const WorldPtr& world,
                                      const solar::PanelPowerFn& live_power,
                                      roadnet::NodeId origin,
                                      roadnet::NodeId destination,
                                      TimeOfDay departure,
                                      const PlannerOptions& planner_options) {
  if (!world) throw InvalidArgument("drive_without_replanning: null world");
  if (!live_power)
    throw InvalidArgument("drive_without_replanning: null live power");
  const SunChasePlanner planner(
      forecast_world(*world, live_power(departure)), planner_options);
  const PlanResult plan = planner.plan(origin, destination, departure);

  DriveOutcome outcome;
  FollowState state{departure, &outcome};
  for (const roadnet::EdgeId e : plan.recommended().route.path.edges)
    traverse_edge(*world, live_power, planner_options.mlc.vehicle, e, state);
  return outcome;
}

}  // namespace sunchase::core
