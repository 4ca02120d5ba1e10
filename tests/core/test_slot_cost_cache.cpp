#include "sunchase/core/slot_cost_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core_fixture.h"
#include "sunchase/common/error.h"
#include "sunchase/obs/metrics.h"

namespace sunchase::core {
namespace {

obs::Counter& hits() { return obs::Registry::global().counter("slotcache.hits"); }
obs::Counter& misses() {
  return obs::Registry::global().counter("slotcache.misses");
}

TEST(SlotCostCache, EntriesMatchEdgeCriteriaAtTheSlotStart) {
  // Bit-exact, not approximate: every row is price_edge at the slot
  // start, criteria and solar accounting alike. The paper world's
  // UrbanTraffic moves speeds within a slot, so a row priced at any
  // other clock would differ there.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  for (const WorldPtr& world : {env.world, test::paper_world()}) {
    const SlotCostCache& cache = world->slot_cache(0);
    for (const int slot : {0, 30, 33, 40, 66, TimeOfDay::kSlotsPerDay - 1}) {
      const TimeOfDay when = TimeOfDay::slot_start(slot);
      for (roadnet::EdgeId e = 0; e < world->graph().edge_count(); ++e)
        EXPECT_EQ(cache.at(e, slot),
                  detail::price_edge(world->solar_map(), world->vehicle(0), e,
                                     when));
    }
  }
}

TEST(SlotCostCache, RejectsOutOfRangeSlots) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const SlotCostCache& cache = env.world->slot_cache(test::RoutingEnv::kLv);
  EXPECT_THROW((void)cache.at(0, -1), InvalidArgument);
  EXPECT_THROW((void)cache.at(0, TimeOfDay::kSlotsPerDay), InvalidArgument);
  EXPECT_NO_THROW((void)cache.at(0, 0));
  EXPECT_NO_THROW((void)cache.at(0, TimeOfDay::kSlotsPerDay - 1));
}

TEST(SlotCostCache, LazyColumnsAndBoundedMemoryAccounting) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const SlotCostCache& cache = env.world->slot_cache(test::RoutingEnv::kLv);
  EXPECT_EQ(cache.filled_slots(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);

  (void)cache.at(0, 40);
  EXPECT_EQ(cache.filled_slots(), 1u);
  EXPECT_EQ(cache.bytes(),
            sq.graph.edge_count() * sizeof(SlotCostCache::Entry));
  (void)cache.at(1, 40);  // same column: no growth
  EXPECT_EQ(cache.filled_slots(), 1u);
  (void)cache.at(0, 41);
  EXPECT_EQ(cache.filled_slots(), 2u);
  EXPECT_EQ(cache.bytes(),
            2 * sq.graph.edge_count() * sizeof(SlotCostCache::Entry));
}

TEST(SlotCostCache, CountsMissOnFirstTouchThenHits) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const SlotCostCache& cache = env.world->slot_cache(test::RoutingEnv::kLv);
  const std::uint64_t h0 = hits().value();
  const std::uint64_t m0 = misses().value();

  (void)cache.at(0, 50);
  EXPECT_EQ(misses().value() - m0, 1u);
  EXPECT_EQ(hits().value() - h0, 0u);

  (void)cache.at(0, 50);
  (void)cache.at(1, 50);
  EXPECT_EQ(misses().value() - m0, 1u);
  EXPECT_EQ(hits().value() - h0, 2u);
}

TEST(SlotCostCache, ConcurrentReadersShareOneMaterialization) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  const SlotCostCache& cache = env.world->slot_cache(test::RoutingEnv::kLv);

  // 8 threads hammer the same two columns; the fill must happen once
  // per column and every reader must see the published entries.
  constexpr int kThreads = 8;
  constexpr int kReads = 200;
  std::atomic<int> mismatches{0};
  const TimeOfDay at40 = TimeOfDay::slot_start(40);
  const Criteria expected =
      detail::price_edge(env.map, env.lv, 0, at40).criteria;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kReads; ++i) {
        const roadnet::EdgeId e = static_cast<roadnet::EdgeId>(
            static_cast<std::size_t>(i) % city.graph().edge_count());
        const int slot = 40 + (i % 2);
        const SlotCostCache::Entry& entry = cache.at(e, slot);
        if (e == 0 && slot == 40 && !(entry.criteria == expected))
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.filled_slots(), 2u);
}

TEST(SlotCostCache, PricingTimeQuantizesOnlyInSlotMode) {
  const TimeOfDay when = TimeOfDay::hms(10, 7, 33);
  EXPECT_EQ(pricing_time(when, PricingMode::Exact), when);
  EXPECT_EQ(pricing_time(when, PricingMode::SlotQuantized),
            TimeOfDay::slot_start(40));
  EXPECT_STREQ(pricing_name(PricingMode::Exact), "exact");
  EXPECT_STREQ(pricing_name(PricingMode::SlotQuantized), "slot");
}

TEST(SlotCostCache, DayBoundaryPricesIdenticallyInBothModesNeverSlot96) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);

  // A label entering an edge inside the final slot (86100-86399), and
  // the saturated end-of-day clock from_seconds(86400) -> 86399: both
  // must quantize to slot 95 — slot 96 does not exist — and under a
  // slot-constant world (UniformTraffic, slot-indexed shading) the
  // quantized price is bit-identical to the exact one.
  const SlotCostCache& cache = env.world->slot_cache(test::RoutingEnv::kLv);
  for (const TimeOfDay entry :
       {TimeOfDay::from_seconds(86100.0), TimeOfDay::from_seconds(86399.0),
        TimeOfDay::from_seconds(static_cast<double>(TimeOfDay::kSecondsPerDay))}) {
    ASSERT_EQ(entry.slot_index(), TimeOfDay::kSlotsPerDay - 1);
    const TimeOfDay quantized =
        pricing_time(entry, PricingMode::SlotQuantized);
    EXPECT_EQ(quantized, TimeOfDay::slot_start(TimeOfDay::kSlotsPerDay - 1));
    for (roadnet::EdgeId e = 0; e < sq.graph.edge_count(); ++e) {
      const Criteria exact =
          detail::price_edge(env.map, env.lv, e, entry).criteria;
      EXPECT_EQ(cache.at(e, entry.slot_index()).criteria, exact);
    }
  }
}

}  // namespace
}  // namespace sunchase::core
