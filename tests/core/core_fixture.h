// Shared fixture for the core routing tests: a small graph with a
// deterministic synthetic shading profile bundled into one immutable
// world snapshot, the bench paper world, plus a brute-force Pareto
// enumerator to validate the multi-label correcting search against.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sunchase/core/edge_cost.h"
#include "sunchase/core/metrics.h"
#include "sunchase/core/mlc.h"
#include "sunchase/core/world.h"
#include "sunchase/ev/consumption.h"
#include "sunchase/roadnet/citygen.h"
#include "sunchase/roadnet/traffic.h"
#include "sunchase/shadow/scenegen.h"
#include "sunchase/solar/input_map.h"
#include "test_helpers.h"

namespace sunchase::test {

/// Deterministic per-edge shading: edge e is shaded by a fraction that
/// depends on (e, slot) through a hash — stable, varied, in [0, 0.9].
inline shadow::ShadedFractionFn hashed_shading() {
  return [](roadnet::EdgeId e, TimeOfDay when) {
    const auto h = static_cast<std::uint64_t>(e) * 2654435761u +
                   static_cast<std::uint64_t>(when.slot_index()) * 97u;
    return static_cast<double>(h % 900) / 1000.0;
  };
}

/// A ready-to-route environment around any graph: one World snapshot
/// carrying the graph (copied), uniform traffic, the hashed shading
/// profile, constant 200 W panel power and two vehicles — the LV
/// prototype at index kLv and the Tesla Model S at index kTesla. The
/// reference members are views into the snapshot, for tests that poke
/// at individual components.
struct RoutingEnv {
  static constexpr std::size_t kLv = 0;
  static constexpr std::size_t kTesla = 1;

  explicit RoutingEnv(const roadnet::RoadGraph& g,
                      MetersPerSecond uniform_speed = kmh(15.0))
      : world(make_world(g, uniform_speed)),
        graph(world->graph()),
        traffic(world->traffic()),
        profile(world->shading()),
        map(world->solar_map()),
        lv(world->vehicle(kLv)),
        tesla(world->vehicle(kTesla)) {}

  [[nodiscard]] static core::WorldPtr make_world(
      const roadnet::RoadGraph& g, MetersPerSecond uniform_speed = kmh(15.0)) {
    return core::World::create(make_init(g, uniform_speed));
  }

  /// The snapshot recipe alone, for tests that publish through a
  /// WorldStore or derive variants before creating.
  [[nodiscard]] static core::WorldInit make_init(
      const roadnet::RoadGraph& g, MetersPerSecond uniform_speed = kmh(15.0)) {
    auto graph = std::make_shared<const roadnet::RoadGraph>(g);
    core::WorldInit init;
    init.graph = graph;
    init.traffic =
        std::make_shared<const roadnet::UniformTraffic>(uniform_speed);
    init.shading = std::make_shared<const shadow::ShadingProfile>(
        shadow::ShadingProfile::compute(*graph, hashed_shading(),
                                        TimeOfDay::hms(8, 0),
                                        TimeOfDay::hms(18, 0)));
    init.panel_power = solar::constant_panel_power(Watts{200.0});
    init.vehicles.push_back(
        std::shared_ptr<const ev::ConsumptionModel>(ev::make_lv_prototype()));
    init.vehicles.push_back(std::shared_ptr<const ev::ConsumptionModel>(
        ev::make_tesla_model_s()));
    return init;
  }

  core::WorldPtr world;
  const roadnet::RoadGraph& graph;
  const roadnet::TrafficModel& traffic;
  const shadow::ShadingProfile& profile;
  const solar::SolarInputMap& map;
  const ev::ConsumptionModel& lv;
  const ev::ConsumptionModel& tesla;
};

/// The bench paper world (12x12 grid, generated scene, exact 15-minute
/// shading, urban traffic), built once per process — compute_exact is
/// the expensive part.
inline const core::WorldPtr& paper_world() {
  static const core::WorldPtr snapshot = [] {
    roadnet::GridCityOptions opt;
    opt.rows = 12;
    opt.cols = 12;
    const roadnet::GridCity city(opt);
    const geo::LocalProjection projection(city.options().origin);
    const shadow::Scene scene = shadow::generate_scene(
        city.graph(), projection, shadow::SceneGenOptions{});
    auto graph = std::make_shared<const roadnet::RoadGraph>(city.graph());
    core::WorldInit init;
    init.graph = graph;
    init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
        roadnet::UrbanTraffic::Options{});
    init.shading = std::make_shared<const shadow::ShadingProfile>(
        shadow::ShadingProfile::compute_exact(*graph, scene,
                                              geo::DayOfYear{196},
                                              TimeOfDay::hms(8, 0),
                                              TimeOfDay::hms(18, 30)));
    init.panel_power = solar::constant_panel_power(Watts{200.0});
    init.vehicles.push_back(std::shared_ptr<const ev::ConsumptionModel>(
        ev::make_lv_prototype()));
    return core::World::create(std::move(init));
  }();
  return snapshot;
}

/// Enumerates every simple path origin->destination (DFS), prices it,
/// then filters to the Pareto frontier. By default every edge is priced
/// at `departure` (static criteria): ground truth for MLC with
/// time_dependent = false. With `time_dependent`, each edge is priced at
/// the departure advanced by the path's travel time so far, the label
/// loop's own clock under exact pricing.
inline std::vector<core::ParetoRoute> brute_force_pareto(
    const solar::SolarInputMap& map, const ev::ConsumptionModel& vehicle,
    roadnet::NodeId origin, roadnet::NodeId destination, TimeOfDay departure,
    bool time_dependent = false) {
  const auto& graph = map.graph();
  std::vector<core::ParetoRoute> all;
  std::vector<roadnet::EdgeId> stack;
  std::vector<bool> visited(graph.node_count(), false);

  std::function<void(roadnet::NodeId, core::Criteria)> dfs =
      [&](roadnet::NodeId u, core::Criteria cost) {
        if (u == destination) {
          all.push_back(core::ParetoRoute{roadnet::Path{stack}, cost});
          return;
        }
        visited[u] = true;
        for (const roadnet::EdgeId e : graph.out_edges(u)) {
          const roadnet::NodeId v = graph.edge(e).to;
          if (visited[v]) continue;
          stack.push_back(e);
          const TimeOfDay entry =
              time_dependent ? departure.advanced_by(cost.travel_time)
                             : departure;
          dfs(v, cost + core::detail::price_edge(map, vehicle, e, entry)
                            .criteria);
          stack.pop_back();
        }
        visited[u] = false;
      };
  dfs(origin, core::Criteria{});

  std::vector<core::ParetoRoute> frontier;
  for (const auto& candidate : all) {
    bool dominated = false;
    for (const auto& other : all) {
      if (core::dominates(other.cost, candidate.cost)) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    // Drop duplicates with equivalent cost (MLC also keeps one each).
    const bool duplicate = std::any_of(
        frontier.begin(), frontier.end(), [&](const core::ParetoRoute& kept) {
          return core::equivalent(kept.cost, candidate.cost);
        });
    if (!duplicate) frontier.push_back(candidate);
  }
  return frontier;
}

}  // namespace sunchase::test
