// The default search (exact, time-dependent pricing) against exhaustive
// enumeration on the search's own clock: brute_force_pareto with
// time_dependent = true prices each edge at the departure plus the
// path's travel time so far, as the label loop does.
//
// Dominance at an intermediate node assumes that a dominated label's
// extensions stay dominated. A label that arrives later also enters the
// next edges later, and may land in a 15-minute slot with less shade
// and finish ahead of the label that dominated it: shaded time does not
// meet the FIFO condition that exact time-dependent label correcting
// needs (Orda & Rom 1990). So the search may miss true Pareto routes.
// It must never return a route off the true frontier. These tests
// assert that, and pin the number of misses exactly, so that a kernel
// change that moves it in either direction shows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core_fixture.h"
#include "sunchase/core/mlc.h"
#include "sunchase/roadnet/citygen.h"

namespace sunchase::core {
namespace {

/// What a set of oracle comparisons found, summed over its queries.
struct Tally {
  std::size_t queries = 0;
  std::size_t true_routes = 0;     ///< frontier routes within the budget
  std::size_t missed_routes = 0;   ///< of those, not returned
  std::size_t missed_queries = 0;  ///< queries missing at least one
};

/// Whether `routes` holds a route whose cost is equivalent to `cost`.
bool has_cost(const std::vector<ParetoRoute>& routes, const Criteria& cost) {
  return std::any_of(routes.begin(), routes.end(), [&](const ParetoRoute& r) {
    return equivalent(r.cost, cost);
  });
}

/// Corner to corner on `world`, at each departure, with no budget and
/// with the default 1.5: every returned route must be on the true
/// frontier (within the budget); the true routes not returned are
/// counted.
Tally compare_with_oracle(const WorldPtr& world, roadnet::NodeId origin,
                          roadnet::NodeId destination,
                          const std::vector<TimeOfDay>& departures) {
  Tally tally;
  const solar::SolarInputMap& map = world->solar_map();
  for (const TimeOfDay departure : departures) {
    // The frontier of all paths; a budget only removes slower routes, and
    // a route's dominators are no slower, so its frontier is this one cut
    // at the budget.
    const std::vector<ParetoRoute> frontier = test::brute_force_pareto(
        map, world->vehicle(0), origin, destination, departure,
        /*time_dependent=*/true);
    for (const double budget : {0.0, 1.5}) {
      MlcOptions options;
      options.max_time_factor = budget;
      const MultiLabelCorrecting solver(world, options);
      const MlcResult result = solver.search(origin, destination, departure);
      const double bound = budget * result.stats.shortest_travel_time.value();
      std::vector<ParetoRoute> truth;
      for (const ParetoRoute& route : frontier)
        if (budget == 0.0 || route.cost.travel_time.value() <= bound)
          truth.push_back(route);
      for (const ParetoRoute& route : result.routes)
        EXPECT_TRUE(has_cost(truth, route.cost))
            << departure.to_string() << " budget " << budget;
      std::size_t missed = 0;
      for (const ParetoRoute& route : truth)
        missed += has_cost(result.routes, route.cost) ? 0u : 1u;
      ++tally.queries;
      tally.true_routes += truth.size();
      tally.missed_routes += missed;
      tally.missed_queries += missed > 0 ? 1u : 0u;
    }
  }
  return tally;
}

/// `per_anchor` departures a minute apart, starting a quarter hour
/// before each of 09:00, 12:00 and 16:00, so that many trips cross a
/// slot boundary mid-route.
std::vector<TimeOfDay> departures(int per_anchor) {
  std::vector<TimeOfDay> out;
  for (const int hour : {9, 12, 16})
    for (int k = 0; k < per_anchor; ++k)
      out.push_back(TimeOfDay::from_seconds(hour * 3600.0 - 900.0 + 60.0 * k));
  return out;
}

/// The paper-world recipe (generated scene, exact 15-minute shading,
/// UrbanTraffic, 200 W, the LV prototype) on `city`.
WorldPtr scene_world(const roadnet::GridCity& city, std::uint64_t seed) {
  const geo::LocalProjection projection(city.options().origin);
  shadow::SceneGenOptions scene_options;
  scene_options.seed = seed;
  const shadow::Scene scene =
      shadow::generate_scene(city.graph(), projection, scene_options);
  auto graph = std::make_shared<const roadnet::RoadGraph>(city.graph());
  WorldInit init;
  init.graph = graph;
  init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
      roadnet::UrbanTraffic::Options{});
  init.shading = std::make_shared<const shadow::ShadingProfile>(
      shadow::ShadingProfile::compute_exact(*graph, scene, geo::DayOfYear{196},
                                            TimeOfDay::hms(8, 0),
                                            TimeOfDay::hms(18, 30)));
  init.panel_power = solar::constant_panel_power(Watts{200.0});
  init.vehicles.push_back(
      std::shared_ptr<const ev::ConsumptionModel>(ev::make_lv_prototype()));
  return World::create(std::move(init));
}

void add(Tally& total, const Tally& part) {
  total.queries += part.queries;
  total.true_routes += part.true_routes;
  total.missed_routes += part.missed_routes;
  total.missed_queries += part.missed_queries;
}

TEST(MlcOracle, TimeDependentSceneWorldsReturnOnlyTrueParetoRoutes) {
  Tally total;
  for (const auto& [rows, cols] : {std::pair{4, 5}, std::pair{5, 5}})
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      roadnet::GridCityOptions opt;
      opt.rows = rows;
      opt.cols = cols;
      opt.seed = seed;
      const roadnet::GridCity city(opt);
      SCOPED_TRACE(testing::Message() << rows << "x" << cols << ", " << seed);
      const WorldPtr world = scene_world(city, seed);
      const roadnet::NodeId corner = city.node_at(rows - 1, cols - 1);
      add(total, compare_with_oracle(world, city.node_at(0, 0), corner,
                                     departures(30)));
    }
  EXPECT_EQ(total.queries, 2160u);
  EXPECT_EQ(total.true_routes, 11405u);
  EXPECT_EQ(total.missed_routes, 8u);
  EXPECT_EQ(total.missed_queries, 8u);
}

TEST(MlcOracle, TimeDependentSlowGridReturnsOnlyTrueParetoRoutes) {
  // Hashed shading at walking pace (2 km/h): trips span several slots.
  Tally total;
  for (const int rows : {3, 4, 5})
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      roadnet::GridCityOptions opt;
      opt.rows = rows;
      opt.cols = 4;
      opt.seed = seed;
      const roadnet::GridCity city(opt);
      const WorldPtr world =
          test::RoutingEnv::make_world(city.graph(), kmh(2.0));
      SCOPED_TRACE(testing::Message() << rows << "x4, " << seed);
      const roadnet::NodeId corner = city.node_at(rows - 1, 3);
      add(total, compare_with_oracle(world, city.node_at(0, 0), corner,
                                     departures(10)));
    }
  EXPECT_EQ(total.queries, 1440u);
  EXPECT_EQ(total.true_routes, 4176u);
  EXPECT_EQ(total.missed_routes, 12u);
  EXPECT_EQ(total.missed_queries, 12u);
}

}  // namespace
}  // namespace sunchase::core
