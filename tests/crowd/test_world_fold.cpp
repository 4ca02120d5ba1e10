// Folding crowdsensed observations into the versioned world stream:
// covered cells take the crowd mean, uncovered cells keep the *base
// snapshot's* shading (never the crowd prior), untouched components are
// carried over by pointer, and publishing leaves older pins intact.
#include "sunchase/crowd/world_fold.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <utility>

#include "sunchase/common/error.h"
#include "sunchase/core/planner.h"
#include "sunchase/ev/consumption.h"
#include "sunchase/roadnet/citygen.h"
#include "sunchase/roadnet/traffic.h"
#include "sunchase/solar/input_map.h"

namespace sunchase::crowd {
namespace {

constexpr double kBaseShade = 0.40;

/// A small grid world with uniform 0.40 shading over 08:00-18:30.
core::WorldInit base_init(const roadnet::GridCity& city) {
  core::WorldInit init;
  init.graph = std::make_shared<const roadnet::RoadGraph>(city.graph());
  init.traffic = std::make_shared<const roadnet::UniformTraffic>(kmh(15.0));
  init.shading = std::make_shared<const shadow::ShadingProfile>(
      shadow::ShadingProfile::compute(
          *init.graph,
          [](roadnet::EdgeId, TimeOfDay) { return kBaseShade; },
          TimeOfDay::hms(8, 0), TimeOfDay::hms(18, 30)));
  init.panel_power = solar::constant_panel_power(Watts{200.0});
  init.vehicles.push_back(
      std::shared_ptr<const ev::ConsumptionModel>(ev::make_lv_prototype()));
  return init;
}

CrowdSolarMap make_crowd(std::size_t edge_count) {
  CrowdSolarMap::Options opt;
  opt.first_slot = TimeOfDay::hms(8, 0).slot_index();
  opt.last_slot = TimeOfDay::hms(18, 30).slot_index();
  // A prior that is obviously wrong everywhere: folding must never
  // leak it into uncovered cells.
  return CrowdSolarMap(edge_count,
                       [](roadnet::EdgeId, TimeOfDay) { return 0.99; }, opt);
}

TEST(WorldFold, CoveredCellsTakeCrowdMeanUncoveredKeepBaseProfile) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const core::WorldPtr base = core::World::create(base_init(city));

  CrowdSolarMap crowd = make_crowd(base->graph().edge_count());
  const TimeOfDay noon = TimeOfDay::hms(12, 0);
  crowd.report(Observation{0, noon.slot_index(), 0.8, 1});
  crowd.report(Observation{0, noon.slot_index(), 0.6, 2});

  const core::WorldInit folded = fold_observations(*base, crowd);
  const shadow::ShadingProfile& corrected = *folded.shading;

  // The reported cell is the crowd mean; the same edge one slot later
  // and every other edge keep the base value — not the 0.99 prior.
  EXPECT_NEAR(corrected.shaded_fraction(0, noon), 0.7, 1e-6);
  EXPECT_NEAR(corrected.shaded_fraction(0, TimeOfDay::hms(15, 0)),
              kBaseShade, 1e-6);
  EXPECT_NEAR(corrected.shaded_fraction(1, noon), kBaseShade, 1e-6);

  // Everything the crowd cannot observe is carried over by pointer.
  EXPECT_EQ(folded.graph.get(), &base->graph());
  EXPECT_EQ(folded.traffic.get(), &base->traffic());
  ASSERT_EQ(folded.vehicles.size(), 1u);
  EXPECT_EQ(folded.vehicles[0].get(), &base->vehicle(0));

  // The corrected profile samples the same slot window as the base.
  EXPECT_EQ(corrected.first_slot(), base->shading().first_slot());
  EXPECT_EQ(corrected.last_slot(), base->shading().last_slot());
}

TEST(WorldFold, FoldEqualsPerCellResampleBitForBit) {
  // A base profile that differs per edge and slot, and a crowd map
  // whose window starts after the base's and ends past it, with a
  // two-report threshold: the fold must give every cell exactly what
  // sampling "covered ? crowd mean : base" at each slot start gives,
  // and covered cells past the base window must change nothing.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  core::WorldInit init = base_init(city);
  init.shading = std::make_shared<const shadow::ShadingProfile>(
      shadow::ShadingProfile::compute(
          *init.graph,
          [](roadnet::EdgeId edge, TimeOfDay when) {
            const auto slot = static_cast<unsigned>(when.slot_index());
            return static_cast<double>((edge * 7 + slot * 13) % 101) / 100.0;
          },
          TimeOfDay::hms(8, 0), TimeOfDay::hms(18, 30)));
  const core::WorldPtr base = core::World::create(std::move(init));
  const std::size_t edges = base->graph().edge_count();

  CrowdSolarMap::Options opt;
  opt.first_slot = TimeOfDay::hms(10, 0).slot_index();
  opt.last_slot = TimeOfDay::hms(20, 0).slot_index();
  opt.min_observations = 2;
  CrowdSolarMap crowd(edges, [](roadnet::EdgeId, TimeOfDay) { return 0.99; },
                      opt);
  for (roadnet::EdgeId edge = 0; edge < edges; edge += 3)
    for (int slot = opt.first_slot; slot <= opt.last_slot; slot += 2) {
      const unsigned reports = (edge + static_cast<unsigned>(slot)) % 4;
      for (unsigned r = 1; r <= reports; ++r)
        crowd.report(Observation{edge, slot, 0.1 * r + 0.01 * (slot % 7), r});
    }

  const shadow::ShadingProfile& prior = base->shading();
  const shadow::ShadingProfile reference = shadow::ShadingProfile::compute(
      base->graph(),
      [&](roadnet::EdgeId edge, TimeOfDay when) {
        return crowd.covered(edge, when.slot_index())
                   ? crowd.shaded_fraction(edge, when)
                   : prior.shaded_fraction(edge, when);
      },
      TimeOfDay::slot_start(prior.first_slot()),
      TimeOfDay::slot_start(prior.last_slot()));
  const core::WorldInit folded = fold_observations(*base, crowd);
  ASSERT_GT(crowd.coverage(), 0.0);
  EXPECT_EQ(folded.shading->edge_count(), reference.edge_count());
  EXPECT_EQ(folded.shading->first_slot(), reference.first_slot());
  EXPECT_EQ(folded.shading->last_slot(), reference.last_slot());
  const std::span<const float> got = folded.shading->fractions();
  const std::span<const float> want = reference.fractions();
  ASSERT_EQ(got.size(), want.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) ++differing;
  EXPECT_EQ(differing, 0u);
}

TEST(WorldFold, RejectsACrowdMapOfAnotherEdgeCount) {
  // The fold writes covered cells by index: a crowd map sized for
  // another graph is refused, never folded out of bounds.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const core::WorldPtr base = core::World::create(base_init(city));
  const std::size_t edges = base->graph().edge_count();
  for (const std::size_t other : {edges - 1, edges + 1}) {
    CrowdSolarMap crowd = make_crowd(other);
    crowd.report(Observation{static_cast<roadnet::EdgeId>(other - 1),
                             TimeOfDay::hms(12, 0).slot_index(), 0.5, 1});
    EXPECT_THROW((void)fold_observations(*base, crowd), InvalidArgument);
  }
}

TEST(WorldFold, PublishCrowdWorldBumpsVersionAndKeepsOldPins) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  core::WorldStore store(base_init(city));
  const core::WorldPtr pinned = store.current();

  CrowdSolarMap crowd = make_crowd(pinned->graph().edge_count());
  const TimeOfDay noon = TimeOfDay::hms(12, 0);
  crowd.report(Observation{0, noon.slot_index(), 0.95, 1});

  const core::WorldPtr published = publish_crowd_world(store, crowd);
  EXPECT_EQ(published->version(), 2u);
  EXPECT_EQ(store.current(), published);
  EXPECT_EQ(&published->graph(), &pinned->graph());

  // New queries see the corrected cell; the old pin still answers with
  // the base profile.
  EXPECT_NEAR(published->shading().shaded_fraction(0, noon), 0.95, 1e-6);
  EXPECT_NEAR(pinned->shading().shaded_fraction(0, noon), kBaseShade, 1e-6);

  // The published snapshot is a fully working planning world.
  const core::SunChasePlanner planner(published);
  const core::PlanResult plan =
      planner.plan(city.node_at(0, 0), city.node_at(5, 5), noon);
  EXPECT_FALSE(plan.candidates.empty());
}

}  // namespace
}  // namespace sunchase::crowd
