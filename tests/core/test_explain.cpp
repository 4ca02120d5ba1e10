// RouteExplainer: the per-edge ledger must reproduce the search's
// criteria vector exactly — the conservation invariant that proves the
// explain path prices edges with the same clock and the same arithmetic
// as the multi-label correcting search. Checked on the paper world
// (12x12 grid, exact shading, urban traffic), not a toy graph, so any
// drift between the two code paths fails here first.
#include "sunchase/core/explain.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/core_fixture.h"
#include "obs/json_check.h"
#include "sunchase/core/mlc.h"
#include "sunchase/exporter/geojson.h"
#include "sunchase/roadnet/citygen.h"
#include "sunchase/shadow/scenegen.h"

namespace sunchase::core {
namespace {

/// The bench paper world (12x12 grid, generated scene, exact 15-minute
/// shading over 8:00-18:30, urban traffic), built once for the suite —
/// compute_exact is the expensive part.
struct PaperWorld {
  PaperWorld()
      : city(city_options()),
        projection(city.options().origin),
        scene(generate_scene(city.graph(), projection,
                             shadow::SceneGenOptions{})) {
    auto graph = std::make_shared<const roadnet::RoadGraph>(city.graph());
    WorldInit init;
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
    snapshot = World::create(std::move(init));
  }

  static roadnet::GridCityOptions city_options() {
    roadnet::GridCityOptions opt;
    opt.rows = 12;
    opt.cols = 12;
    return opt;
  }

  roadnet::GridCity city;
  geo::LocalProjection projection;
  shadow::Scene scene;
  WorldPtr snapshot;
};

const PaperWorld& world() {
  static const PaperWorld w;
  return w;
}

MlcResult search_a1_b1(bool time_dependent = true,
                       PricingMode pricing = PricingMode::Exact) {
  MlcOptions options;
  options.max_time_factor = 1.5;
  options.time_dependent = time_dependent;
  options.pricing = pricing;
  const MultiLabelCorrecting solver(world().snapshot, options);
  // The paper's A1 -> B1 trip at 10:00 (Table R-I).
  return solver.search(world().city.node_at(1, 1),
                       world().city.node_at(9, 10), TimeOfDay::hms(10, 0));
}

TEST(RouteExplainerTest, LedgerConservesEveryParetoRouteOnThePaperWorld) {
  const MlcResult result = search_a1_b1();
  ASSERT_FALSE(result.routes.empty());

  const RouteExplainer explainer(world().snapshot);
  for (const ParetoRoute& route : result.routes) {
    const RouteLedger ledger =
        explainer.explain(route, TimeOfDay::hms(10, 0));
    EXPECT_TRUE(ledger.conserves(route.cost, 0.0))
        << "deviation " << ledger.max_deviation(route.cost) << " over "
        << ledger.steps.size() << " edges";
  }
}

TEST(RouteExplainerTest, LedgerTotalsAreTheRouteMetrics) {
  // The ledger and the selection metrics are one walk: field for field
  // equal, also inside rush hour, where UrbanTraffic speeds move within
  // a slot and any second clock rule would drift in the last bits.
  const MultiLabelCorrecting solver(world().snapshot, MlcOptions{});
  const RouteExplainer explainer(world().snapshot);
  for (const TimeOfDay departure :
       {TimeOfDay::hms(8, 7), TimeOfDay::hms(10, 0), TimeOfDay::hms(17, 7)}) {
    const MlcResult result = solver.search(
        world().city.node_at(1, 1), world().city.node_at(9, 10), departure);
    ASSERT_FALSE(result.routes.empty());
    for (const ParetoRoute& route : result.routes) {
      const RouteMetrics totals = explainer.explain(route, departure).totals;
      const RouteMetrics m =
          evaluate_route(world().snapshot, route.path, departure);
      EXPECT_EQ(totals.total_length.value(), m.total_length.value());
      EXPECT_EQ(totals.travel_time.value(), m.travel_time.value());
      EXPECT_EQ(totals.solar_time.value(), m.solar_time.value());
      EXPECT_EQ(totals.shaded_time.value(), m.shaded_time.value());
      EXPECT_EQ(totals.energy_in.value(), m.energy_in.value());
      EXPECT_EQ(totals.energy_out.value(), m.energy_out.value());
    }
  }
}

TEST(RouteExplainerTest, ConservesUnderStaticPricingToo) {
  const MlcResult result = search_a1_b1(/*time_dependent=*/false);
  ASSERT_FALSE(result.routes.empty());

  const RouteExplainer explainer(world().snapshot);
  for (const ParetoRoute& route : result.routes) {
    const RouteLedger ledger = explainer.explain(
        route, TimeOfDay::hms(10, 0), /*time_dependent=*/false);
    EXPECT_TRUE(ledger.conserves(route.cost, 0.0))
        << "deviation " << ledger.max_deviation(route.cost);
  }
}

TEST(RouteExplainerTest, ConservesSlotQuantizedRoutesBitExactly) {
  // The paper world runs UrbanTraffic (continuous congestion), so slot
  // and exact prices genuinely differ within a slot. A route planned
  // under SlotQuantized therefore only conserves when the ledger
  // replays the same mode — and then it must do so with zero tolerance,
  // because both paths run identical arithmetic at the slot start.
  const MlcResult result =
      search_a1_b1(/*time_dependent=*/true, PricingMode::SlotQuantized);
  ASSERT_FALSE(result.routes.empty());

  const RouteExplainer explainer(world().snapshot);
  for (const ParetoRoute& route : result.routes) {
    const RouteLedger ledger =
        explainer.explain(route, TimeOfDay::hms(10, 0),
                          /*time_dependent=*/true,
                          PricingMode::SlotQuantized);
    EXPECT_TRUE(ledger.conserves(route.cost, 0.0))
        << "deviation " << ledger.max_deviation(route.cost) << " over "
        << ledger.steps.size() << " edges";
  }
}

TEST(RouteExplainerTest, ReplayingTheWrongPricingModeBreaksConservation) {
  // The cross-check of the test above: replaying a SlotQuantized route
  // with Exact pricing must drift on at least one route (rush-hour
  // congestion changes within the 15-minute slot). If this ever stops
  // failing, the two modes have collapsed into one and the pricing
  // parameter is dead weight.
  const MlcResult result =
      search_a1_b1(/*time_dependent=*/true, PricingMode::SlotQuantized);
  ASSERT_FALSE(result.routes.empty());

  const RouteExplainer explainer(world().snapshot);
  bool any_drift = false;
  for (const ParetoRoute& route : result.routes) {
    const RouteLedger ledger =
        explainer.explain(route, TimeOfDay::hms(10, 0),
                          /*time_dependent=*/true, PricingMode::Exact);
    if (!ledger.conserves(route.cost, 0.0)) any_drift = true;
  }
  EXPECT_TRUE(any_drift);
}

TEST(RouteExplainerTest, SlotLedgerRecordsRealEntryClocksNotSlotStarts) {
  const MlcResult result =
      search_a1_b1(/*time_dependent=*/true, PricingMode::SlotQuantized);
  ASSERT_FALSE(result.routes.empty());
  const ParetoRoute& route = result.routes.front();

  const RouteExplainer explainer(world().snapshot);
  const TimeOfDay departure = TimeOfDay::hms(10, 0);
  const RouteLedger ledger = explainer.explain(
      route, departure, /*time_dependent=*/true, PricingMode::SlotQuantized);

  // Only the price is quantized; the entry column keeps the search
  // clock (departure advanced by the cumulative travel time).
  Seconds elapsed{0.0};
  for (const ExplainStep& s : ledger.steps) {
    EXPECT_DOUBLE_EQ(s.entry.seconds_since_midnight(),
                     departure.advanced_by(elapsed).seconds_since_midnight());
    EXPECT_EQ(s.slot, s.entry.slot_index());
    elapsed += s.travel_time;
  }
}

TEST(RouteExplainerTest, StepsWalkThePathWithAConsistentClock) {
  const MlcResult result = search_a1_b1();
  ASSERT_FALSE(result.routes.empty());
  const ParetoRoute& route = result.routes.front();

  const RouteExplainer explainer(world().snapshot);
  const TimeOfDay departure = TimeOfDay::hms(10, 0);
  const RouteLedger ledger = explainer.explain(route, departure);
  ASSERT_EQ(ledger.steps.size(), route.path.edges.size());

  const auto& graph = world().city.graph();
  Seconds elapsed{0.0};
  for (std::size_t i = 0; i < ledger.steps.size(); ++i) {
    const ExplainStep& s = ledger.steps[i];
    const auto& edge = graph.edge(route.path.edges[i]);
    EXPECT_EQ(s.edge, route.path.edges[i]);
    EXPECT_EQ(s.from, edge.from);
    EXPECT_EQ(s.to, edge.to);
    if (i > 0) {
      EXPECT_EQ(s.from, ledger.steps[i - 1].to);
    }
    // The entry clock is the departure advanced by the travel time
    // accumulated so far (the search's convention).
    EXPECT_DOUBLE_EQ(s.entry.seconds_since_midnight(),
                     departure.advanced_by(elapsed).seconds_since_midnight());
    EXPECT_EQ(s.slot, s.entry.slot_index());
    EXPECT_GE(s.shade_ratio, 0.0);
    EXPECT_LE(s.shade_ratio, 1.0);
    EXPECT_GT(s.travel_time.value(), 0.0);
    elapsed += s.travel_time;
  }

  // The last cumulative row and the totals tell the same story.
  const ExplainStep& last = ledger.steps.back();
  EXPECT_DOUBLE_EQ(last.cumulative.travel_time.value(),
                   ledger.totals.travel_time.value());
  EXPECT_DOUBLE_EQ(last.cumulative.energy_out.value(),
                   ledger.totals.energy_out.value());
  EXPECT_DOUBLE_EQ(last.cumulative_energy_in.value(),
                   ledger.totals.energy_in.value());
  EXPECT_NEAR(ledger.totals.solar_time.value() +
                  ledger.totals.shaded_time.value(),
              ledger.totals.travel_time.value(), 1e-6);
}

TEST(RouteExplainerTest, EmptyPathYieldsAnEmptyConservingLedger) {
  const RouteExplainer explainer(world().snapshot);
  const RouteLedger ledger =
      explainer.explain(roadnet::Path{}, TimeOfDay::hms(10, 0));
  EXPECT_TRUE(ledger.steps.empty());
  EXPECT_TRUE(ledger.conserves(Criteria{}));
  EXPECT_TRUE(test::json_parses(ledger.to_json()));
}

TEST(RouteExplainerTest, ExportsParseableJsonAndCsv) {
  const MlcResult result = search_a1_b1();
  ASSERT_FALSE(result.routes.empty());
  const RouteExplainer explainer(world().snapshot);
  const RouteLedger ledger =
      explainer.explain(result.routes.front(), TimeOfDay::hms(10, 0));

  EXPECT_TRUE(test::json_parses(ledger.to_json()));

  const std::string csv = ledger.to_csv();
  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.substr(0, 4), "seq,");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, ledger.steps.size());
}

TEST(RouteExplainerTest, AnnotatedGeoJsonHasOneFeaturePerStep) {
  const MlcResult result = search_a1_b1();
  ASSERT_FALSE(result.routes.empty());
  const RouteExplainer explainer(world().snapshot);
  const RouteLedger ledger =
      explainer.explain(result.routes.front(), TimeOfDay::hms(10, 0));

  const std::string geojson =
      exporter::geojson_explained_route(world().city.graph(), ledger);
  EXPECT_TRUE(test::json_parses(geojson));
  std::size_t features = 0;
  for (std::size_t at = geojson.find("\"explain-step\"");
       at != std::string::npos;
       at = geojson.find("\"explain-step\"", at + 1))
    ++features;
  EXPECT_EQ(features, ledger.steps.size());
}

}  // namespace
}  // namespace sunchase::core
