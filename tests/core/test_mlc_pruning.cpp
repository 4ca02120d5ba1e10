// Lower-bound budget pruning and the epsilon-dominance merge: pruning
// with epsilon = 0 must be invisible in the results — bit-identical
// Pareto sets (costs AND paths) against the unpruned search on the
// paper world and a generated urban grid, at rush hour, under both
// pricing modes, and with the clock saturated at the end of the day —
// while measurably shrinking the explored frontier. Epsilon > 0 is the
// opposite contract: allowed to drop Pareto points, never allowed to
// return a broken or over-budget route.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core_fixture.h"
#include "sunchase/common/error.h"
#include "sunchase/core/mlc.h"
#include "sunchase/roadnet/citygen.h"

namespace sunchase::core {
namespace {

/// RoutingEnv's snapshot recipe with UrbanTraffic swapped in: the
/// time-dependent traffic model whose congestion dips make the
/// admissibility question real (a static bound must undercut every
/// rush-hour speed).
core::WorldPtr urban_world(const roadnet::RoadGraph& g) {
  core::WorldInit init = test::RoutingEnv::make_init(g);
  init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
      roadnet::UrbanTraffic::Options{});
  return core::World::create(std::move(init));
}

/// Pruned and unpruned searches of the same query must agree bit for
/// bit on the destination Pareto set; the pruned one must not have
/// done more work.
void expect_bit_identical(const core::WorldPtr& world, roadnet::NodeId o,
                          roadnet::NodeId d, TimeOfDay dep,
                          PricingMode pricing) {
  MlcOptions on;
  on.max_time_factor = 1.5;
  on.pricing = pricing;
  on.prune_with_lower_bounds = true;
  MlcOptions off = on;
  off.prune_with_lower_bounds = false;
  const MlcResult pruned = MultiLabelCorrecting(world, on).search(o, d, dep);
  const MlcResult plain = MultiLabelCorrecting(world, off).search(o, d, dep);

  ASSERT_EQ(pruned.routes.size(), plain.routes.size())
      << "pruning changed the Pareto set size";
  for (std::size_t r = 0; r < pruned.routes.size(); ++r) {
    EXPECT_EQ(pruned.routes[r].cost, plain.routes[r].cost);
    EXPECT_EQ(pruned.routes[r].path.edges, plain.routes[r].path.edges);
  }
  EXPECT_LE(pruned.stats.labels_created, plain.stats.labels_created);
  EXPECT_LE(pruned.stats.queue_pops, plain.stats.queue_pops);
}

TEST(MlcPruning, CtorRejectsNonFiniteTimeFactor) {
  // The NaN budget bypass: NaN fails every ordered comparison, so the
  // old range checks let it through and time_bound poisoned to NaN
  // disabled the only prune the search had.
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    MlcOptions opt;
    opt.max_time_factor = bad;
    EXPECT_THROW(MultiLabelCorrecting(env.world, opt), InvalidArgument)
        << "max_time_factor = " << bad;
  }
}

TEST(MlcPruning, CtorRejectsNonFiniteOrNegativeEpsilon) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(), -0.25}) {
    MlcOptions opt;
    opt.epsilon = bad;
    EXPECT_THROW(MultiLabelCorrecting(env.world, opt), InvalidArgument)
        << "epsilon = " << bad;
  }
}

TEST(MlcPruning, BitIdenticalOnUrbanGridAtRushHour) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const core::WorldPtr world = urban_world(city.graph());
  const std::vector<std::pair<roadnet::NodeId, roadnet::NodeId>> trips = {
      {city.node_at(0, 0), city.node_at(9, 9)},
      {city.node_at(1, 1), city.node_at(6, 7)},
      {city.node_at(9, 0), city.node_at(0, 9)},
  };
  // 08:30 sits at the morning congestion peak: entry speeds are far
  // below the free-flow bound the reverse Dijkstra uses, the widest
  // admissibility gap the model can produce.
  for (const auto& [o, d] : trips)
    for (const PricingMode pricing :
         {PricingMode::Exact, PricingMode::SlotQuantized})
      expect_bit_identical(world, o, d, TimeOfDay::hms(8, 30), pricing);
}

TEST(MlcPruning, BitIdenticalOnThePaperWorld) {
  const core::WorldPtr& world = test::paper_world();
  const auto& graph = world->graph();
  const roadnet::NodeId o = 0;
  const auto d = static_cast<roadnet::NodeId>(graph.node_count() - 1);
  for (const PricingMode pricing :
       {PricingMode::Exact, PricingMode::SlotQuantized})
    expect_bit_identical(world, o, d, TimeOfDay::hms(8, 30), pricing);
}

TEST(MlcPruning, PruningMeasurablyShrinksTheSearch) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const core::WorldPtr world = urban_world(city.graph());
  MlcOptions on;
  // A tight budget (20% slack, the paper's extra-travel-time regime):
  // loose budgets admit every label inside a wide detour ellipse and
  // the bound has nothing to kill.
  on.max_time_factor = 1.2;
  MlcOptions off = on;
  off.prune_with_lower_bounds = false;
  const TimeOfDay dep = TimeOfDay::hms(8, 30);
  const MlcResult pruned = MultiLabelCorrecting(world, on).search(
      city.node_at(0, 0), city.node_at(9, 9), dep);
  const MlcResult plain = MultiLabelCorrecting(world, off).search(
      city.node_at(0, 0), city.node_at(9, 9), dep);
  // Strict reduction, not <=: on a grid this size the bound must bite.
  EXPECT_LT(pruned.stats.labels_created, plain.stats.labels_created);
  EXPECT_LT(pruned.stats.queue_pops, plain.stats.queue_pops);
  EXPECT_GT(pruned.stats.labels_pruned_bound, 0u);
  EXPECT_GT(pruned.stats.lower_bound_seconds, 0.0);
  // The unpruned search never builds lower bounds.
  EXPECT_EQ(plain.stats.lower_bound_seconds, 0.0);
}

TEST(MlcPruning, MidnightSaturationStaysAdmissible) {
  // A trip departing 23:59 saturates: every advanced_by lands in slot
  // 95 and stays there. The static lower bound must remain admissible
  // against that frozen clock — no route of the unpruned search may be
  // lost to pruning.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const core::WorldPtr world = urban_world(city.graph());
  const TimeOfDay dep = TimeOfDay::hms(23, 59);
  // The saturation premise itself: one hour past 23:59 is still the
  // last slot of the day.
  EXPECT_EQ(dep.advanced_by(Seconds{3600.0}).slot_index(),
            TimeOfDay::kSlotsPerDay - 1);
  for (const PricingMode pricing :
       {PricingMode::Exact, PricingMode::SlotQuantized})
    expect_bit_identical(world, city.node_at(1, 1), city.node_at(8, 8), dep,
                         pricing);
}

TEST(MlcPruning, DisabledBudgetSkipsTheLowerBoundBuild) {
  // max_time_factor = 0: nothing to prune against, so no reverse
  // Dijkstra runs even with pruning enabled.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.max_time_factor = 0.0;
  opt.prune_with_lower_bounds = true;
  const MlcResult result = MultiLabelCorrecting(env.world, opt).search(
      city.node_at(1, 1), city.node_at(4, 4), TimeOfDay::hms(10, 0));
  EXPECT_EQ(result.stats.lower_bound_seconds, 0.0);
  EXPECT_EQ(result.stats.labels_pruned_bound, 0u);
}

TEST(MlcEpsilon, MergeShrinksTheParetoSetAndCountsMerges) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const core::WorldPtr world = urban_world(city.graph());
  MlcOptions exact_opt;
  exact_opt.max_time_factor = 1.5;
  MlcOptions approx_opt = exact_opt;
  approx_opt.epsilon = 0.05;
  const roadnet::NodeId o = city.node_at(0, 0);
  const roadnet::NodeId d = city.node_at(9, 9);
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const MlcResult exact = MultiLabelCorrecting(world, exact_opt).search(o, d,
                                                                        dep);
  const MlcResult approx =
      MultiLabelCorrecting(world, approx_opt).search(o, d, dep);
  EXPECT_EQ(exact.stats.labels_merged_epsilon, 0u);
  EXPECT_GT(approx.stats.labels_merged_epsilon, 0u);
  EXPECT_LE(approx.routes.size(), exact.routes.size());
  EXPECT_LE(approx.stats.labels_created, exact.stats.labels_created);
  // Approximate, not broken: every returned route still connects the
  // query and respects the time budget.
  ASSERT_FALSE(approx.routes.empty());
  const double bound =
      approx.stats.shortest_travel_time.value() * approx_opt.max_time_factor;
  for (const auto& route : approx.routes) {
    EXPECT_TRUE(is_connected(route.path, world->graph()));
    EXPECT_EQ(path_origin(route.path, world->graph()), o);
    EXPECT_EQ(path_destination(route.path, world->graph()), d);
    EXPECT_LE(route.cost.travel_time.value(), bound + 1e-6);
  }
}

TEST(MlcEpsilon, ZeroEpsilonIsTheExactSearch) {
  // epsilon = 0 must take the exact code path: identical results AND
  // identical effort counters vs an MlcOptions that never mentions
  // epsilon.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions a;
  a.max_time_factor = 1.5;
  MlcOptions b = a;
  b.epsilon = 0.0;
  const roadnet::NodeId o = city.node_at(2, 2);
  const roadnet::NodeId d = city.node_at(7, 7);
  const TimeOfDay dep = TimeOfDay::hms(9, 14);
  const MlcResult ra = MultiLabelCorrecting(env.world, a).search(o, d, dep);
  const MlcResult rb = MultiLabelCorrecting(env.world, b).search(o, d, dep);
  ASSERT_EQ(ra.routes.size(), rb.routes.size());
  for (std::size_t r = 0; r < ra.routes.size(); ++r) {
    EXPECT_EQ(ra.routes[r].cost, rb.routes[r].cost);
    EXPECT_EQ(ra.routes[r].path.edges, rb.routes[r].path.edges);
  }
  EXPECT_EQ(ra.stats.labels_created, rb.stats.labels_created);
  EXPECT_EQ(ra.stats.queue_pops, rb.stats.queue_pops);
  EXPECT_EQ(rb.stats.labels_merged_epsilon, 0u);
}

}  // namespace
}  // namespace sunchase::core
