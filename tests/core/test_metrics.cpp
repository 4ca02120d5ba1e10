#include "sunchase/core/metrics.h"

#include <gtest/gtest.h>

#include "core_fixture.h"

namespace sunchase::core {
namespace {

TEST(EdgeCriteria, ConsistentWithInputMap) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const TimeOfDay when = TimeOfDay::hms(10, 0);
  const EdgePrice price = detail::price_edge(env.map, env.lv, 0, when);
  const Criteria& c = price.criteria;
  const solar::EdgeSolar es = env.map.evaluate(0, when);
  EXPECT_EQ(price.solar, es);
  EXPECT_DOUBLE_EQ(c.travel_time.value(), es.travel_time.value());
  EXPECT_DOUBLE_EQ(c.shaded_time.value(), es.shaded_time.value());
  const MetersPerSecond v = env.traffic.speed(sq.graph, 0, when);
  EXPECT_DOUBLE_EQ(
      c.energy_out.value(),
      env.lv.consumption(sq.graph.edge(0).length, v).value());
}

TEST(EvaluateRoute, EmptyPathIsAllZero) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const RouteMetrics m =
      detail::evaluate_route(env.map, env.lv, roadnet::Path{}, TimeOfDay::hms(9, 0));
  EXPECT_DOUBLE_EQ(m.total_length.value(), 0.0);
  EXPECT_DOUBLE_EQ(m.travel_time.value(), 0.0);
  EXPECT_DOUBLE_EQ(m.energy_in.value(), 0.0);
  EXPECT_DOUBLE_EQ(m.energy_out.value(), 0.0);
}

TEST(EvaluateRoute, AccumulatesAlongPath) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  roadnet::Path p;
  p.edges = {sq.graph.find_edge(0, 1), sq.graph.find_edge(1, 3)};
  const RouteMetrics m =
      detail::evaluate_route(env.map, env.lv, p, TimeOfDay::hms(10, 0));
  EXPECT_NEAR(m.total_length.value(), 200.0, 0.5);
  EXPECT_NEAR(m.travel_time.value(), 200.0 / kmh(15.0).value(), 0.2);
  EXPECT_NEAR(m.solar_time.value() + m.shaded_time.value(),
              m.travel_time.value(), 1e-6);
  EXPECT_GT(m.energy_in.value(), 0.0);
  EXPECT_GT(m.energy_out.value(), 0.0);
}

/// Every route's metrics equal the cost vector the exact,
/// time-dependent search assigned it, bit for bit: both walk the route
/// on the same clock and price each edge with price_edge.
void expect_metrics_are_search_costs(const WorldPtr& world,
                                     roadnet::NodeId origin,
                                     roadnet::NodeId destination,
                                     TimeOfDay departure) {
  const MultiLabelCorrecting solver(world, MlcOptions{});
  const MlcResult result = solver.search(origin, destination, departure);
  ASSERT_FALSE(result.routes.empty());
  for (const auto& route : result.routes) {
    const RouteMetrics m = evaluate_route(world, route.path, departure);
    EXPECT_EQ(m.travel_time.value(), route.cost.travel_time.value());
    EXPECT_EQ(m.shaded_time.value(), route.cost.shaded_time.value());
    EXPECT_EQ(m.energy_out.value(), route.cost.energy_out.value());
  }
}

TEST(EvaluateRoute, MatchesMlcCostVector) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  expect_metrics_are_search_costs(env.world, city.node_at(1, 1),
                                  city.node_at(6, 7), TimeOfDay::hms(10, 0));
  // The paper world's UrbanTraffic speeds change within a slot, so a
  // walk on any other clock than the search's drifts in the last bits.
  for (const int hour : {8, 9, 12, 16, 17})
    for (const roadnet::NodeId origin : {0u, 5u, 13u})
      expect_metrics_are_search_costs(test::paper_world(), origin, 143,
                                      TimeOfDay::hms(hour, 7));
}

TEST(EnergyExtra, EquationFiveSigns) {
  RouteMetrics baseline;
  baseline.energy_in = WattHours{10.0};
  baseline.energy_out = WattHours{50.0};
  RouteMetrics good;  // +6 Wh input for +2 Wh consumption -> +4
  good.energy_in = WattHours{16.0};
  good.energy_out = WattHours{52.0};
  EXPECT_NEAR(energy_extra(good, baseline).value(), 4.0, 1e-12);

  RouteMetrics bad;  // +1 Wh input for +5 Wh consumption -> -4
  bad.energy_in = WattHours{11.0};
  bad.energy_out = WattHours{55.0};
  EXPECT_NEAR(energy_extra(bad, baseline).value(), -4.0, 1e-12);

  EXPECT_DOUBLE_EQ(energy_extra(baseline, baseline).value(), 0.0);
}

TEST(EvaluateRoute, HigherPanelPowerMeansMoreEnergyIn) {
  test::SquareGraph sq;
  roadnet::UniformTraffic traffic(kmh(15.0));
  const auto profile = shadow::ShadingProfile::compute(
      sq.graph, test::hashed_shading(), TimeOfDay::hms(8, 0),
      TimeOfDay::hms(18, 0));
  const solar::SolarInputMap weak(sq.graph, profile, traffic,
                                  solar::constant_panel_power(Watts{160.0}));
  const solar::SolarInputMap strong(
      sq.graph, profile, traffic,
      solar::constant_panel_power(Watts{210.0}));
  const auto lv = ev::make_lv_prototype();
  roadnet::Path p;
  p.edges = {sq.graph.find_edge(0, 1)};
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  EXPECT_LT(detail::evaluate_route(weak, *lv, p, dep).energy_in.value(),
            detail::evaluate_route(strong, *lv, p, dep).energy_in.value());
}

}  // namespace
}  // namespace sunchase::core
