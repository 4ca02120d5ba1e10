#include "sunchase/crowd/crowd_map.h"

#include <gtest/gtest.h>

#include "sunchase/common/error.h"
#include "sunchase/common/rng.h"

namespace sunchase::crowd {
namespace {

CrowdSolarMap::Options window() {
  CrowdSolarMap::Options opt;
  opt.first_slot = 36;  // 09:00
  opt.last_slot = 68;   // 17:00
  return opt;
}

shadow::ShadedFractionFn constant_prior(double value) {
  return [value](roadnet::EdgeId, TimeOfDay) { return value; };
}

TEST(CrowdMap, PriorAnswersWhenNoData) {
  const CrowdSolarMap map(10, constant_prior(0.42), window());
  EXPECT_DOUBLE_EQ(map.shaded_fraction(3, TimeOfDay::hms(12, 0)), 0.42);
  EXPECT_DOUBLE_EQ(map.coverage(), 0.0);
  EXPECT_EQ(map.observation_count(), 0u);
}

TEST(CrowdMap, SingleObservationOverridesPrior) {
  CrowdSolarMap map(10, constant_prior(0.42), window());
  map.report(Observation{3, TimeOfDay::hms(12, 0).slot_index(), 0.8, 1});
  EXPECT_DOUBLE_EQ(map.shaded_fraction(3, TimeOfDay::hms(12, 5)), 0.8);
  // Other cells still fall back to the prior.
  EXPECT_DOUBLE_EQ(map.shaded_fraction(3, TimeOfDay::hms(15, 0)), 0.42);
  EXPECT_DOUBLE_EQ(map.shaded_fraction(4, TimeOfDay::hms(12, 0)), 0.42);
}

TEST(CrowdMap, ObservationsAverage) {
  CrowdSolarMap map(4, constant_prior(0.0), window());
  const int slot = TimeOfDay::hms(11, 0).slot_index();
  map.report(Observation{1, slot, 0.2, 1});
  map.report(Observation{1, slot, 0.4, 2});
  map.report(Observation{1, slot, 0.6, 3});
  EXPECT_NEAR(map.shaded_fraction(1, TimeOfDay::hms(11, 10)), 0.4, 1e-12);
}

TEST(CrowdMap, MinObservationsThreshold) {
  CrowdSolarMap::Options opt = window();
  opt.min_observations = 3;
  CrowdSolarMap map(4, constant_prior(0.9), opt);
  const int slot = TimeOfDay::hms(11, 0).slot_index();
  map.report(Observation{1, slot, 0.1, 1});
  map.report(Observation{1, slot, 0.1, 2});
  EXPECT_DOUBLE_EQ(map.shaded_fraction(1, TimeOfDay::hms(11, 0)), 0.9);
  map.report(Observation{1, slot, 0.1, 3});
  EXPECT_NEAR(map.shaded_fraction(1, TimeOfDay::hms(11, 0)), 0.1, 1e-12);
}

TEST(CrowdMap, TimesOutsideWindowClamp) {
  CrowdSolarMap map(4, constant_prior(0.5), window());
  const int first = window().first_slot;
  map.report(Observation{0, first, 0.25, 1});
  EXPECT_DOUBLE_EQ(map.shaded_fraction(0, TimeOfDay::hms(6, 0)), 0.25);
}

TEST(CrowdMap, CoverageCountsCells) {
  CrowdSolarMap::Options opt = window();
  const int slots = opt.last_slot - opt.first_slot + 1;
  CrowdSolarMap map(2, constant_prior(0.0), opt);
  map.report(Observation{0, opt.first_slot, 0.5, 1});
  map.report(Observation{1, opt.last_slot, 0.5, 1});
  EXPECT_NEAR(map.coverage(), 2.0 / (2.0 * slots), 1e-12);
}

TEST(CrowdMap, CoverageCountsACellOncePastTheThreshold) {
  CrowdSolarMap::Options opt = window();
  opt.min_observations = 2;
  const int slots = opt.last_slot - opt.first_slot + 1;
  CrowdSolarMap map(4, constant_prior(0.0), opt);
  for (std::uint64_t id = 1; id <= 5; ++id)
    map.report(Observation{2, 40, 0.5, id});
  map.report(Observation{3, 41, 0.5, 6});  // one report: below threshold
  EXPECT_NEAR(map.coverage(), 1.0 / (4.0 * slots), 1e-12);
  int visited = 0;
  map.for_each_covered([&](roadnet::EdgeId edge, int slot, double mean) {
    ++visited;
    EXPECT_EQ(edge, 2u);
    EXPECT_EQ(slot, 40);
    EXPECT_EQ(mean, map.shaded_fraction(2, TimeOfDay::slot_start(40)));
  });
  EXPECT_EQ(visited, 1);
}

TEST(CrowdMap, ReportValidation) {
  CrowdSolarMap map(4, constant_prior(0.5), window());
  EXPECT_THROW(map.report(Observation{9, 40, 0.5, 1}), InvalidArgument);
  EXPECT_THROW(map.report(Observation{0, 2, 0.5, 1}), InvalidArgument);
  EXPECT_THROW(map.report(Observation{0, 40, 1.5, 1}), InvalidArgument);
  EXPECT_THROW(map.report(Observation{0, 40, -0.1, 1}), InvalidArgument);
}

TEST(CrowdMap, ConstructionValidation) {
  EXPECT_THROW(CrowdSolarMap(0, constant_prior(0.5), window()),
               InvalidArgument);
  EXPECT_THROW(CrowdSolarMap(4, nullptr, window()), InvalidArgument);
  CrowdSolarMap::Options bad = window();
  bad.last_slot = bad.first_slot - 1;
  EXPECT_THROW(CrowdSolarMap(4, constant_prior(0.5), bad), InvalidArgument);
  bad = window();
  bad.min_observations = 0;
  EXPECT_THROW(CrowdSolarMap(4, constant_prior(0.5), bad), InvalidArgument);
}

TEST(CrowdMap, NoisyObservationsConvergeToTruth) {
  CrowdSolarMap map(1, constant_prior(0.0), window());
  Rng rng(99);
  const int slot = TimeOfDay::hms(13, 0).slot_index();
  const double truth = 0.37;
  for (int i = 0; i < 2000; ++i) {
    const double noisy =
        std::clamp(truth + rng.normal(0.0, 0.1), 0.0, 1.0);
    map.report(Observation{0, slot, noisy,
                           static_cast<std::uint64_t>(i)});
  }
  EXPECT_NEAR(map.shaded_fraction(0, TimeOfDay::hms(13, 0)), truth, 0.01);
}

TEST(CrowdMap, EstimatorFeedsShadingProfile) {
  CrowdSolarMap map(2, constant_prior(0.5), window());
  // Tiny graph matching the 2 edges.
  roadnet::GraphBuilder b;
  b.add_node({45.50, -73.57});
  b.add_node({45.51, -73.57});
  b.add_two_way(0, 1);
  const roadnet::RoadGraph g = std::move(b).build();
  map.report(Observation{0, 40, 0.2, 1});
  const auto profile = shadow::ShadingProfile::compute(
      g, map.estimator(), TimeOfDay::slot_start(40),
      TimeOfDay::slot_start(40));
  EXPECT_NEAR(profile.shaded_fraction(0, TimeOfDay::slot_start(40)), 0.2,
              1e-6);
  EXPECT_NEAR(profile.shaded_fraction(1, TimeOfDay::slot_start(40)), 0.5,
              1e-6);
}

}  // namespace
}  // namespace sunchase::crowd
