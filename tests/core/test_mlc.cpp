#include "sunchase/core/mlc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core_fixture.h"
#include "sunchase/common/error.h"

namespace sunchase::core {
namespace {

MlcOptions static_unbounded() {
  MlcOptions opt;
  opt.max_time_factor = 0.0;    // full Pareto set
  opt.time_dependent = false;   // static costs -> brute force comparable
  return opt;
}

TEST(Mlc, MatchesBruteForceOnSquareGraph) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const MultiLabelCorrecting solver(env.world, static_unbounded());
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const MlcResult result = solver.search(0, 3, dep);
  const auto expected =
      test::brute_force_pareto(env.map, env.lv, 0, 3, dep);

  ASSERT_EQ(result.routes.size(), expected.size());
  for (const auto& route : result.routes) {
    const bool found = std::any_of(
        expected.begin(), expected.end(), [&](const ParetoRoute& e) {
          return equivalent(e.cost, route.cost);
        });
    EXPECT_TRUE(found) << "unexpected cost (" << route.cost.travel_time.value()
                       << ", " << route.cost.shaded_time.value() << ", "
                       << route.cost.energy_out.value() << ")";
  }
}

// The decisive correctness check: MLC against exhaustive enumeration on
// randomized grid cities with one-way streets.
class MlcBruteForceProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MlcBruteForceProperty, FullParetoSetMatches) {
  roadnet::GridCityOptions opt;
  opt.rows = 3;
  opt.cols = 4;  // small enough for exhaustive DFS
  opt.one_way_fraction = 0.5;
  opt.seed = GetParam();
  const roadnet::GridCity city(opt);
  test::RoutingEnv env(city.graph());
  const MultiLabelCorrecting solver(env.world, static_unbounded());
  const TimeOfDay dep = TimeOfDay::hms(11, 0);
  const roadnet::NodeId o = city.node_at(0, 0);
  const roadnet::NodeId d = city.node_at(2, 3);

  const MlcResult result = solver.search(o, d, dep);
  const auto expected = test::brute_force_pareto(env.map, env.lv, o, d, dep);

  ASSERT_EQ(result.routes.size(), expected.size());
  for (const auto& route : result.routes) {
    EXPECT_TRUE(std::any_of(expected.begin(), expected.end(),
                            [&](const ParetoRoute& e) {
                              return equivalent(e.cost, route.cost);
                            }));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MlcBruteForceProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(Mlc, RoutesAreMutuallyNonDominated) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const MultiLabelCorrecting solver(env.world, static_unbounded());
  const MlcResult result = solver.search(0, 3, TimeOfDay::hms(10, 0));
  for (const auto& a : result.routes)
    for (const auto& b : result.routes)
      EXPECT_FALSE(dominates(a.cost, b.cost) && dominates(b.cost, a.cost));
}

TEST(Mlc, AllRoutesConnectOriginToDestination) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.max_time_factor = 1.5;
  const MultiLabelCorrecting solver(env.world, opt);
  const roadnet::NodeId o = city.node_at(2, 2);
  const roadnet::NodeId d = city.node_at(9, 10);
  const MlcResult result = solver.search(o, d, TimeOfDay::hms(10, 0));
  ASSERT_FALSE(result.routes.empty());
  for (const auto& route : result.routes) {
    EXPECT_TRUE(is_connected(route.path, city.graph()));
    EXPECT_EQ(path_origin(route.path, city.graph()), o);
    EXPECT_EQ(path_destination(route.path, city.graph()), d);
  }
}

TEST(Mlc, ContainsTheShortestTimeRoute) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.max_time_factor = 1.5;
  const MultiLabelCorrecting solver(env.world, opt);
  const roadnet::NodeId o = city.node_at(1, 1);
  const roadnet::NodeId d = city.node_at(8, 8);
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const MlcResult result = solver.search(o, d, dep);
  // The lexicographically first route minimizes travel time; it must
  // match the Dijkstra baseline the stats carry.
  ASSERT_FALSE(result.routes.empty());
  EXPECT_NEAR(result.routes.front().cost.travel_time.value(),
              result.stats.shortest_travel_time.value(), 0.5);
}

TEST(Mlc, TimeBudgetPrunesLongRoutes) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions tight;
  tight.max_time_factor = 1.1;
  MlcOptions loose;
  loose.max_time_factor = 2.0;
  const MultiLabelCorrecting tight_solver(env.world, tight);
  const MultiLabelCorrecting loose_solver(env.world, loose);
  const roadnet::NodeId o = city.node_at(2, 2);
  const roadnet::NodeId d = city.node_at(7, 7);
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const MlcResult t = tight_solver.search(o, d, dep);
  const MlcResult l = loose_solver.search(o, d, dep);
  EXPECT_LE(t.routes.size(), l.routes.size());
  const double bound =
      t.stats.shortest_travel_time.value() * tight.max_time_factor;
  for (const auto& route : t.routes)
    EXPECT_LE(route.cost.travel_time.value(), bound + 1e-6);
}

TEST(Mlc, UnreachableDestinationThrows) {
  roadnet::GraphBuilder b;
  b.add_node({45.50, -73.57});
  b.add_node({45.51, -73.57});
  b.add_node({45.52, -73.57});
  b.add_edge(0, 1);
  const roadnet::RoadGraph g = std::move(b).build();
  test::RoutingEnv env(g);
  const MultiLabelCorrecting solver(env.world, MlcOptions{});
  EXPECT_THROW((void)solver.search(0, 2, TimeOfDay::hms(10, 0)),
               RoutingError);
}

TEST(Mlc, UnknownNodeThrows) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const MultiLabelCorrecting solver(env.world, MlcOptions{});
  EXPECT_THROW((void)solver.search(0, 99, TimeOfDay::hms(10, 0)),
               GraphError);
}

TEST(Mlc, LabelBudgetEnforced) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.max_labels = 10;
  const MultiLabelCorrecting solver(env.world, opt);
  EXPECT_THROW((void)solver.search(city.node_at(0, 0), city.node_at(9, 9),
                                   TimeOfDay::hms(10, 0)),
               RoutingError);
}

TEST(Mlc, InvalidOptionsRejected) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  MlcOptions bad;
  bad.max_time_factor = -1.0;
  EXPECT_THROW(MultiLabelCorrecting(env.world, bad), InvalidArgument);
  bad.max_time_factor = 0.5;  // would exclude the shortest path
  EXPECT_THROW(MultiLabelCorrecting(env.world, bad), InvalidArgument);
}

TEST(Mlc, OriginEqualsDestinationYieldsEmptyRoute) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const MultiLabelCorrecting solver(env.world, MlcOptions{});
  const MlcResult result = solver.search(1, 1, TimeOfDay::hms(10, 0));
  ASSERT_EQ(result.routes.size(), 1u);
  EXPECT_TRUE(result.routes.front().path.empty());
  EXPECT_DOUBLE_EQ(result.routes.front().cost.travel_time.value(), 0.0);
}

TEST(Mlc, StatsArePopulated) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  const MultiLabelCorrecting solver(env.world, MlcOptions{});
  const MlcResult result = solver.search(city.node_at(1, 1),
                                         city.node_at(6, 6),
                                         TimeOfDay::hms(10, 0));
  EXPECT_GT(result.stats.labels_created, result.routes.size());
  EXPECT_GT(result.stats.queue_pops, 0u);
  EXPECT_EQ(result.stats.pareto_size, result.routes.size());
  EXPECT_GT(result.stats.shortest_travel_time.value(), 0.0);
}

TEST(Mlc, MaxLabelsExhaustionThrowsRoutingErrorNamingTheBudget) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.max_labels = 32;
  const MultiLabelCorrecting solver(env.world, opt);
  try {
    (void)solver.search(city.node_at(0, 0), city.node_at(9, 9),
                        TimeOfDay::hms(10, 0));
    FAIL() << "expected RoutingError";
  } catch (const RoutingError& e) {
    EXPECT_NE(std::string(e.what()).find("label budget"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("32"), std::string::npos);
  }
}

TEST(Mlc, TimeIndependentPricesEveryEdgeAtTheDepartureInstant) {
  // With time_dependent = false, each returned route's cost must equal
  // the sum of its edge criteria all evaluated at the departure time —
  // exactly, since the search adds the same doubles.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.max_time_factor = 1.3;
  opt.time_dependent = false;
  const MultiLabelCorrecting solver(env.world, opt);
  const TimeOfDay dep = TimeOfDay::hms(9, 10);
  const MlcResult result = solver.search(city.node_at(1, 1),
                                         city.node_at(6, 7), dep);
  ASSERT_FALSE(result.routes.empty());
  for (const auto& route : result.routes) {
    Criteria static_cost;
    for (const roadnet::EdgeId e : route.path.edges)
      static_cost += detail::price_edge(env.map, env.lv, e, dep).criteria;
    EXPECT_EQ(route.cost, static_cost);
  }
}

TEST(Mlc, TimeIndependentSearchIgnoresMidRouteSlotBoundaries) {
  // A static search departing just before a 15-minute slot boundary and
  // one departing within the same slot but later must agree with the
  // static pricing of their own departure instant; the time-dependent
  // search from the same origin can differ because it re-prices edges
  // mid-route. This pins down the semantic difference of the flag.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions static_opt;
  static_opt.max_time_factor = 1.3;
  static_opt.time_dependent = false;
  MlcOptions dynamic_opt = static_opt;
  dynamic_opt.time_dependent = true;
  const MultiLabelCorrecting static_solver(env.world, static_opt);
  const MultiLabelCorrecting dynamic_solver(env.world, dynamic_opt);
  const roadnet::NodeId o = city.node_at(0, 0);
  const roadnet::NodeId d = city.node_at(9, 9);
  // 09:14 departure: a multi-minute trip crosses into the 09:15 slot.
  const TimeOfDay dep = TimeOfDay::hms(9, 14);
  const MlcResult st = static_solver.search(o, d, dep);
  const MlcResult dy = dynamic_solver.search(o, d, dep);
  ASSERT_FALSE(st.routes.empty());
  ASSERT_FALSE(dy.routes.empty());
  // Static costs re-derived at the departure instant match exactly...
  for (const auto& route : st.routes) {
    Criteria at_departure;
    for (const roadnet::EdgeId e : route.path.edges)
      at_departure += detail::price_edge(env.map, env.lv, e, dep).criteria;
    EXPECT_EQ(route.cost, at_departure);
  }
  // ...while the time-dependent search sees the slot change mid-route:
  // re-pricing its best route statically gives a different vector.
  bool any_differs = false;
  for (const auto& route : dy.routes) {
    Criteria at_departure;
    for (const roadnet::EdgeId e : route.path.edges)
      at_departure += detail::price_edge(env.map, env.lv, e, dep).criteria;
    if (!equivalent(route.cost, at_departure)) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Mlc, SlotQuantizedParetoSetsAreBitIdenticalOnASlotConstantWorld) {
  // RoutingEnv is slot-constant: UniformTraffic, slot-indexed shading,
  // constant panel power. Every input to price_edge is therefore
  // identical at the exact entry clock and at the slot start, so the
  // SlotQuantized search must reproduce the Exact Pareto sets bit for
  // bit — costs, paths, and search-effort stats alike.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions exact_opt;
  exact_opt.max_time_factor = 1.5;
  MlcOptions slot_opt = exact_opt;
  slot_opt.pricing = PricingMode::SlotQuantized;
  const MultiLabelCorrecting exact(env.world, exact_opt);
  const MultiLabelCorrecting slot(env.world, slot_opt);
  ASSERT_EQ(exact.cache(), nullptr);
  ASSERT_NE(slot.cache(), nullptr);

  const std::vector<std::pair<roadnet::NodeId, roadnet::NodeId>> trips = {
      {city.node_at(0, 0), city.node_at(9, 9)},
      {city.node_at(1, 1), city.node_at(6, 7)},
      {city.node_at(9, 0), city.node_at(0, 9)},
  };
  for (const auto& [o, d] : trips)
    for (const TimeOfDay dep :
         {TimeOfDay::hms(8, 30), TimeOfDay::hms(9, 14),
          TimeOfDay::hms(12, 0), TimeOfDay::hms(17, 50)}) {
      const MlcResult e = exact.search(o, d, dep);
      const MlcResult s = slot.search(o, d, dep);
      ASSERT_EQ(e.routes.size(), s.routes.size());
      for (std::size_t r = 0; r < e.routes.size(); ++r) {
        EXPECT_EQ(e.routes[r].cost, s.routes[r].cost);
        EXPECT_EQ(e.routes[r].path.edges, s.routes[r].path.edges);
      }
      EXPECT_EQ(e.stats.labels_created, s.stats.labels_created);
      EXPECT_EQ(e.stats.labels_dominated, s.stats.labels_dominated);
      EXPECT_EQ(e.stats.queue_pops, s.stats.queue_pops);
    }
}

TEST(Mlc, SlotQuantizedRepeatQueriesReuseTheCache) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.pricing = PricingMode::SlotQuantized;
  const MultiLabelCorrecting solver(env.world, opt);
  const MlcResult first = solver.search(city.node_at(1, 1),
                                        city.node_at(6, 6),
                                        TimeOfDay::hms(10, 0));
  const std::size_t filled = solver.cache()->filled_slots();
  EXPECT_GT(filled, 0u);
  const MlcResult second = solver.search(city.node_at(1, 1),
                                         city.node_at(6, 6),
                                         TimeOfDay::hms(10, 0));
  // Same slots touched again: no new columns, identical results.
  EXPECT_EQ(solver.cache()->filled_slots(), filled);
  ASSERT_EQ(first.routes.size(), second.routes.size());
  for (std::size_t r = 0; r < first.routes.size(); ++r)
    EXPECT_EQ(first.routes[r].cost, second.routes[r].cost);
}

TEST(Mlc, TimeDependentCostsChangeWithDeparture) {
  // With hashed shading varying by slot, a trip at 9:00 and one at
  // 13:00 should see different shaded-time costs on some route.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  const MultiLabelCorrecting solver(env.world, MlcOptions{});
  const roadnet::NodeId o = city.node_at(1, 1);
  const roadnet::NodeId d = city.node_at(5, 5);
  const auto morning = solver.search(o, d, TimeOfDay::hms(9, 0));
  const auto noon = solver.search(o, d, TimeOfDay::hms(13, 0));
  ASSERT_FALSE(morning.routes.empty());
  ASSERT_FALSE(noon.routes.empty());
  EXPECT_FALSE(equivalent(morning.routes.front().cost,
                          noon.routes.front().cost));
}

}  // namespace
}  // namespace sunchase::core
