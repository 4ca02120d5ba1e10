// Differential oracle for the MLC kernel. reference_search() below is the
// straightforward form of the label loop (arena-index bags, a reject scan
// through equivalent() || dominates(), a separate erase pass, one
// SlotCostCache::at() per priced edge), kept as a test-only reference
// beside the brute-force oracle in core_fixture.h. The production
// kernel runs the same algorithm over bags kept in blocks of four rows
// (detail/bag_block.h), scanned a block at a time, so on every query it
// must agree with the reference bit for bit: route costs and edge
// lists, every MlcStats count, and the slot-cache hit/miss totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core_fixture.h"
#include "sunchase/common/error.h"
#include "sunchase/common/rng.h"
#include "sunchase/core/detail/bag_block.h"
#include "sunchase/core/dijkstra.h"
#include "sunchase/core/mlc.h"
#include "sunchase/core/slot_cost_cache.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/roadnet/citygen.h"

namespace sunchase::core {
namespace {

/// Dominance in its defining fuzzy_cmp form, as the reference loop had
/// it; the kernel and core::dominates use an equivalent branch-free form.
bool reference_dominates(const Criteria& a, const Criteria& b) {
  using detail::fuzzy_cmp;
  const int c1 = fuzzy_cmp(a.travel_time.value(), b.travel_time.value());
  const int c2 = fuzzy_cmp(a.shaded_time.value(), b.shaded_time.value());
  const int c3 = fuzzy_cmp(a.energy_out.value(), b.energy_out.value());
  if (c1 > 0 || c2 > 0 || c3 > 0) return false;
  return c1 < 0 || c2 < 0 || c3 < 0;
}

/// What the reference loop's own bags went through: the shapes at which
/// the kernel's four-row blocks have a partial last block or compact
/// across block boundaries, and the accepted inserts whose bag bounds
/// (detail::BagBounds, kept as the kernel keeps them) skip each pass.
struct BagShapes {
  /// Accepted inserts into a bag of more than 4 rows whose size is not
  /// a multiple of 4: the whole bag, ragged last block included, was
  /// scanned without a stop.
  std::size_t ragged_inserts = 0;
  /// Inserts that dropped dominated rows from a bag of more than 4 rows.
  std::size_t multi_block_compactions = 0;
  std::size_t largest_bag = 0;
  /// Accepted inserts into a non-empty bag whose bounds skip the reject
  /// scan, and those that scan.
  std::size_t reject_scans_skipped = 0;
  std::size_t reject_scans_run = 0;
  /// Accepted inserts into a non-empty bag whose bounds skip the
  /// dominated-row pass, and those that run it.
  std::size_t dominated_passes_skipped = 0;
  std::size_t dominated_passes_run = 0;

  void add(const BagShapes& query) {
    ragged_inserts += query.ragged_inserts;
    multi_block_compactions += query.multi_block_compactions;
    largest_bag = std::max(largest_bag, query.largest_bag);
    reject_scans_skipped += query.reject_scans_skipped;
    reject_scans_run += query.reject_scans_run;
    dominated_passes_skipped += query.dominated_passes_skipped;
    dominated_passes_run += query.dominated_passes_run;
  }
};

/// The reference search. Same contract as MultiLabelCorrecting::search
/// for valid options; it records no mlc.* metrics and no timings. When
/// `shapes` is set, it adds to it what the search's bags went through.
MlcResult reference_search(const WorldPtr& world, const MlcOptions& options,
                           roadnet::NodeId origin,
                           roadnet::NodeId destination, TimeOfDay departure,
                           BagShapes* shapes = nullptr) {
  struct Label {
    Criteria cost;
    roadnet::NodeId node = roadnet::kInvalidNode;
    roadnet::EdgeId via_edge = roadnet::kInvalidEdge;
    std::int32_t parent = -1;
    bool alive = true;
  };
  struct QueueEntry {
    Criteria cost;
    std::uint32_t label;
  };
  struct LexGreater {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const noexcept {
      return lex_less(b.cost, a.cost);
    }
  };

  const solar::SolarInputMap& map = world->solar_map();
  const ev::ConsumptionModel& vehicle = world->vehicle(options.vehicle);
  const SlotCostCache* cache = options.pricing == PricingMode::SlotQuantized
                                   ? &world->slot_cache(options.vehicle)
                                   : nullptr;
  const auto& graph = map.graph();
  MlcResult result;

  const auto shortest = detail::shortest_time_path(
      graph, map.traffic(), origin, destination, departure);
  if (!shortest) throw RoutingError("reference_search: unreachable");
  result.stats.shortest_travel_time = shortest->travel_time;
  const double time_bound =
      options.max_time_factor > 0.0
          ? shortest->travel_time.value() * options.max_time_factor
          : 0.0;
  std::vector<double> lower_bounds;
  if (time_bound > 0.0 && options.prune_with_lower_bounds)
    lower_bounds = detail::time_lower_bounds(graph, map.traffic(), destination);

  std::vector<Label> arena;
  std::vector<std::vector<std::uint32_t>> bags(graph.node_count());
  // Every row each bag ever held, as the kernel's bounds cover them.
  std::vector<detail::BagBounds> bounds(graph.node_count());
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, LexGreater> queue;
  arena.push_back(Label{Criteria{}, origin, roadnet::kInvalidEdge, -1, true});
  bags[origin].push_back(0);
  bounds[origin].add(0.0, 0.0, 0.0);
  queue.push(QueueEntry{Criteria{}, 0});
  result.stats.labels_created = 1;

  auto try_insert = [&](roadnet::NodeId v, const Criteria& cost,
                        roadnet::EdgeId via, std::int32_t parent) {
    auto& bag = bags[v];
    for (const std::uint32_t idx : bag) {
      ++result.stats.dominance_checks;
      const Criteria& existing = arena[idx].cost;
      if (equivalent(existing, cost) || reference_dominates(existing, cost))
        return;
      if (options.epsilon > 0.0 &&
          epsilon_dominates(existing, cost, options.epsilon)) {
        ++result.stats.labels_merged_epsilon;
        return;
      }
    }
    const std::size_t scanned = bag.size();
    const auto dropped = std::erase_if(bag, [&](std::uint32_t idx) {
      if (reference_dominates(cost, arena[idx].cost)) {
        arena[idx].alive = false;
        ++result.stats.labels_dominated;
        return true;
      }
      return false;
    });
    if (arena.size() >= options.max_labels)
      throw RoutingError("reference_search: label budget exhausted");
    const auto idx = static_cast<std::uint32_t>(arena.size());
    arena.push_back(Label{cost, v, via, parent, true});
    ++result.stats.labels_created;
    bag.push_back(idx);
    if (shapes != nullptr) {
      if (scanned > 4 && scanned % 4 != 0) ++shapes->ragged_inserts;
      if (scanned > 4 && dropped > 0) ++shapes->multi_block_compactions;
      shapes->largest_bag = std::max(shapes->largest_bag, bag.size());
      if (scanned > 0) {
        const detail::Candidate c =
            detail::Candidate::of(cost, options.epsilon);
        ++(bounds[v].no_row_stops(c, options.epsilon > 0.0)
               ? shapes->reject_scans_skipped
               : shapes->reject_scans_run);
        ++(bounds[v].no_row_dominated(c) ? shapes->dominated_passes_skipped
                                         : shapes->dominated_passes_run);
      }
    }
    bounds[v].add(cost.travel_time.value(), cost.shaded_time.value(),
                  cost.energy_out.value());
    queue.push(QueueEntry{cost, idx});
  };

  while (!queue.empty()) {
    const QueueEntry entry = queue.top();
    queue.pop();
    ++result.stats.queue_pops;
    const Label current = arena[entry.label];
    if (!current.alive) continue;
    if (current.node == destination) continue;
    const TimeOfDay now = options.time_dependent
                              ? departure.advanced_by(current.cost.travel_time)
                              : departure;
    const int slot = cache ? now.slot_index() : 0;
    for (const roadnet::EdgeId e : graph.out_edges(current.node)) {
      const Criteria next =
          current.cost +
          (cache ? cache->at(e, slot).criteria
                 : detail::price_edge(map, vehicle, e, now).criteria);
      const roadnet::NodeId to = graph.edge(e).to;
      if (time_bound > 0.0) {
        const double slack = lower_bounds.empty() ? 0.0 : lower_bounds[to];
        if (next.travel_time.value() + slack > time_bound) {
          ++result.stats.labels_pruned_bound;
          continue;
        }
      }
      try_insert(to, next, e, static_cast<std::int32_t>(entry.label));
    }
  }

  for (const std::uint32_t idx : bags[destination]) {
    ParetoRoute route;
    route.cost = arena[idx].cost;
    for (std::int32_t i = static_cast<std::int32_t>(idx);
         arena[static_cast<std::uint32_t>(i)].parent != -1;
         i = arena[static_cast<std::uint32_t>(i)].parent)
      route.path.edges.push_back(arena[static_cast<std::uint32_t>(i)].via_edge);
    std::reverse(route.path.edges.begin(), route.path.edges.end());
    result.routes.push_back(std::move(route));
  }
  std::sort(result.routes.begin(), result.routes.end(),
            [](const ParetoRoute& a, const ParetoRoute& b) {
              return lex_less(a.cost, b.cost);
            });
  result.stats.pareto_size = result.routes.size();
  return result;
}

/// Bit-equal routes and equal counts, kernel vs reference.
void expect_same(const MlcResult& kernel, const MlcResult& reference,
                 const std::string& what) {
  ASSERT_EQ(kernel.routes.size(), reference.routes.size()) << what;
  for (std::size_t r = 0; r < kernel.routes.size(); ++r) {
    EXPECT_EQ(kernel.routes[r].cost, reference.routes[r].cost)
        << what << " route " << r;
    EXPECT_EQ(kernel.routes[r].path.edges, reference.routes[r].path.edges)
        << what << " route " << r;
  }
  const MlcStats& k = kernel.stats;
  const MlcStats& ref = reference.stats;
  EXPECT_EQ(k.labels_created, ref.labels_created) << what;
  EXPECT_EQ(k.labels_dominated, ref.labels_dominated) << what;
  EXPECT_EQ(k.queue_pops, ref.queue_pops) << what;
  EXPECT_EQ(k.labels_pruned_bound, ref.labels_pruned_bound) << what;
  EXPECT_EQ(k.labels_merged_epsilon, ref.labels_merged_epsilon) << what;
  EXPECT_EQ(k.pareto_size, ref.pareto_size) << what;
  EXPECT_EQ(k.dominance_checks, ref.dominance_checks) << what;
  EXPECT_EQ(k.shortest_travel_time, ref.shortest_travel_time) << what;
}

roadnet::RoadGraph grid_graph(int n) {
  roadnet::GridCityOptions opt;
  opt.rows = n;
  opt.cols = n;
  return roadnet::GridCity(opt).graph();
}

WorldPtr routing_env_world(int n) {
  return test::RoutingEnv::make_world(grid_graph(n));
}

/// The RoutingEnv recipe on an n x n grid with UrbanTraffic, the
/// perf_mlc_scaling shape: hashed shading under rush-hour speeds.
WorldPtr urban_grid_world(int n) {
  WorldInit init = test::RoutingEnv::make_init(grid_graph(n));
  init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
      roadnet::UrbanTraffic::Options{});
  return World::create(std::move(init));
}

/// An n x n lattice of two-way streets, every edge exactly 100 m, under
/// RoutingEnv's uniform traffic: all paths with the same hop count tie
/// exactly in travel time and energy and differ only in shade. The
/// jittered city grids almost never tie; this world exercises the
/// equal-time branches of the dominance tests on every insert.
WorldPtr tie_lattice_world(int n) {
  roadnet::GraphBuilder builder;
  const geo::LocalProjection proj = test::montreal_projection();
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      test::add_node_at(builder, proj, 100.0 * c, 100.0 * r);
  auto street = [&](int u, int v) {
    const auto a = static_cast<roadnet::NodeId>(u);
    const auto b = static_cast<roadnet::NodeId>(v);
    builder.add_edge(a, b, Meters{100.0});
    builder.add_edge(b, a, Meters{100.0});
  };
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c) {
      if (c + 1 < n) street(r * n + c, r * n + c + 1);
      if (r + 1 < n) street(r * n + c, (r + 1) * n + c);
    }
  return test::RoutingEnv::make_world(std::move(builder).build());
}

/// Every combination of the options that change the loop: pricing mode,
/// lower bounds, time dependence and the epsilon merge.
std::vector<MlcOptions> option_matrix() {
  std::vector<MlcOptions> matrix;
  for (const PricingMode pricing :
       {PricingMode::Exact, PricingMode::SlotQuantized})
    for (const bool prune : {true, false})
      for (const bool time_dependent : {true, false})
        for (const double epsilon : {0.0, 0.05}) {
          MlcOptions opt;
          opt.pricing = pricing;
          opt.prune_with_lower_bounds = prune;
          opt.time_dependent = time_dependent;
          opt.epsilon = epsilon;
          matrix.push_back(opt);
        }
  return matrix;
}

std::string describe(const MlcOptions& opt, roadnet::NodeId o,
                     roadnet::NodeId d, TimeOfDay dep) {
  return std::string(pricing_name(opt.pricing)) +
         (opt.prune_with_lower_bounds ? " lb" : " no-lb") +
         (opt.time_dependent ? " td" : " static") +
         " eps=" + std::to_string(opt.epsilon) +
         " budget=" + std::to_string(opt.max_time_factor) + " " +
         std::to_string(o) + "->" + std::to_string(d) + " @ " +
         dep.to_string();
}

/// What a batch of compared queries exercised, summed over them.
struct Coverage {
  std::size_t queries = 0;
  std::size_t labels_created = 0;
  std::size_t labels_dominated = 0;
  std::size_t labels_pruned_bound = 0;
  std::size_t labels_merged_epsilon = 0;
  std::size_t multi_route_sets = 0;  ///< queries with > 1 Pareto route
  BagShapes bags;
};

/// `per_combo` queries for every option combination on `world`:
/// departures anywhere from 06:00 to the end of the day (past the
/// shading window and across the midnight clamp), budgets from tight to
/// loose.
Coverage compare_on(const WorldPtr& world, std::uint64_t seed,
                    int per_combo) {
  Rng rng(seed);
  const auto nodes = static_cast<std::int64_t>(world->graph().node_count());
  Coverage coverage;
  for (MlcOptions opt : option_matrix()) {
    for (int q = 0; q < per_combo; ++q) {
      // The first query of each combination crosses the whole grid (the
      // long searches with full bags); the rest pick random endpoints.
      auto o = static_cast<roadnet::NodeId>(rng.uniform_int(0, nodes - 1));
      auto d = static_cast<roadnet::NodeId>(rng.uniform_int(0, nodes - 2));
      if (d >= o) ++d;
      if (q == 0) {
        o = 0;
        d = static_cast<roadnet::NodeId>(nodes - 1);
      }
      const TimeOfDay dep = TimeOfDay::from_seconds(
          rng.uniform(6.0 * 3600.0, TimeOfDay::kSecondsPerDay - 1.0));
      opt.max_time_factor = rng.uniform(1.1, 1.7);
      const std::string what = describe(opt, o, d, dep);
      const MlcResult kernel =
          MultiLabelCorrecting(world, opt).search(o, d, dep);
      BagShapes shapes;
      const MlcResult reference =
          reference_search(world, opt, o, d, dep, &shapes);
      expect_same(kernel, reference, what);
      coverage.bags.add(shapes);
      ++coverage.queries;
      coverage.labels_created += kernel.stats.labels_created;
      coverage.labels_dominated += kernel.stats.labels_dominated;
      coverage.labels_pruned_bound += kernel.stats.labels_pruned_bound;
      coverage.labels_merged_epsilon += kernel.stats.labels_merged_epsilon;
      if (kernel.routes.size() > 1) ++coverage.multi_route_sets;
    }
  }
  return coverage;
}

/// The matrix must reach every branch of the insert: otherwise an
/// agreement would say little.
void expect_exercised(const Coverage& c) {
  EXPECT_EQ(c.queries, 80u);
  EXPECT_GT(c.labels_dominated, 0u);
  EXPECT_GT(c.labels_pruned_bound, 0u);
  EXPECT_GT(c.labels_merged_epsilon, 0u);
  EXPECT_GT(c.multi_route_sets, c.queries / 4);
  // The kernel keeps bags in blocks of four rows: a bag must grow past
  // one block, be scanned through a partial last block and be compacted
  // across block boundaries.
  EXPECT_GT(c.bags.ragged_inserts, 0u);
  EXPECT_GT(c.bags.multi_block_compactions, 0u);
  EXPECT_GE(c.bags.largest_bag, 8u);
  // The kernel skips each pass over a bag when its bounds clear the
  // candidate: both branches of both shortcuts must run.
  EXPECT_GT(c.bags.reject_scans_skipped, 0u);
  EXPECT_GT(c.bags.reject_scans_run, 0u);
  EXPECT_GT(c.bags.dominated_passes_skipped, 0u);
  EXPECT_GT(c.bags.dominated_passes_run, 0u);
}

TEST(MlcReference, ReferenceMatchesBruteForce) {
  // The oracle itself against exhaustive enumeration (static costs, no
  // budget), the same setup test_mlc pins the kernel with.
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u}) {
    roadnet::GridCityOptions opt;
    opt.rows = 3;
    opt.cols = 4;
    opt.one_way_fraction = 0.5;
    opt.seed = seed;
    const roadnet::GridCity city(opt);
    test::RoutingEnv env(city.graph());
    MlcOptions mlc;
    mlc.max_time_factor = 0.0;
    mlc.time_dependent = false;
    const TimeOfDay dep = TimeOfDay::hms(11, 0);
    const roadnet::NodeId o = city.node_at(0, 0);
    const roadnet::NodeId d = city.node_at(2, 3);
    const MlcResult reference = reference_search(env.world, mlc, o, d, dep);
    const auto expected = test::brute_force_pareto(env.map, env.lv, o, d, dep);
    ASSERT_EQ(reference.routes.size(), expected.size()) << "seed " << seed;
    for (const ParetoRoute& route : reference.routes)
      EXPECT_TRUE(std::any_of(
          expected.begin(), expected.end(),
          [&](const ParetoRoute& e) { return equivalent(e.cost, route.cost); }))
          << "seed " << seed;
  }
}

TEST(MlcReference, KernelMatchesOnRoutingEnvGrid) {
  expect_exercised(compare_on(routing_env_world(10), 0x10, 5));
}

TEST(MlcReference, KernelMatchesOnThePaperWorld) {
  expect_exercised(compare_on(test::paper_world(), 0x12, 5));
}

TEST(MlcReference, KernelMatchesOnUrbanGrid) {
  expect_exercised(compare_on(urban_grid_world(16), 0x16, 5));
}

TEST(MlcReference, KernelMatchesOnATieLattice) {
  // Equal-time labels reach every node, and the dominated ones among
  // them differ only in shade: most Pareto sets are single routes.
  const Coverage c = compare_on(tie_lattice_world(8), 0x08, 5);
  EXPECT_EQ(c.queries, 80u);
  EXPECT_GT(c.labels_dominated, 0u);
}

TEST(MlcReference, KernelMatchesOnTheOtherVehicle) {
  // Vehicle index 1 (Tesla Model S): its own slot cache and consumption.
  const WorldPtr world = routing_env_world(10);
  for (const PricingMode pricing :
       {PricingMode::Exact, PricingMode::SlotQuantized}) {
    MlcOptions opt;
    opt.vehicle = test::RoutingEnv::kTesla;
    opt.pricing = pricing;
    const TimeOfDay dep = TimeOfDay::hms(9, 40);
    expect_same(MultiLabelCorrecting(world, opt).search(3, 96, dep),
                reference_search(world, opt, 3, 96, dep),
                std::string("tesla ") + pricing_name(pricing));
  }
}

TEST(MlcReference, LabelBudgetTripsAtTheSameLabel) {
  const WorldPtr world = urban_grid_world(16);
  MlcOptions opt;
  const TimeOfDay dep = TimeOfDay::hms(8, 30);
  const roadnet::NodeId o = 0;
  const auto d = static_cast<roadnet::NodeId>(world->graph().node_count() - 1);
  const std::size_t created =
      reference_search(world, opt, o, d, dep).stats.labels_created;
  opt.max_labels = created;  // exactly enough
  EXPECT_EQ(MultiLabelCorrecting(world, opt).search(o, d, dep)
                .stats.labels_created,
            created);
  opt.max_labels = created - 1;  // one short
  EXPECT_THROW((void)reference_search(world, opt, o, d, dep), RoutingError);
  EXPECT_THROW((void)MultiLabelCorrecting(world, opt).search(o, d, dep),
               RoutingError);
}

TEST(MlcReference, SlotCacheCountersMatchColdAndWarm) {
  // Two identical snapshots, so each search starts from its own cold
  // cache: the kernel's per-pop column reads must add up to the
  // reference's per-edge at() hits and misses, cold and then warm.
  obs::Counter& hits = obs::Registry::global().counter("slotcache.hits");
  obs::Counter& misses = obs::Registry::global().counter("slotcache.misses");
  obs::Counter& checks =
      obs::Registry::global().counter("mlc.dominance_checks");
  const WorldPtr for_reference = urban_grid_world(16);
  const WorldPtr for_kernel = urban_grid_world(16);
  MlcOptions opt;
  opt.pricing = PricingMode::SlotQuantized;
  const roadnet::NodeId o = 5;
  const roadnet::NodeId d = 250;
  // 09:55 departure: the search crosses into later slots mid-route.
  const TimeOfDay dep = TimeOfDay::hms(9, 55);

  for (const char* phase : {"cold", "warm"}) {
    const std::uint64_t h0 = hits.value();
    const std::uint64_t m0 = misses.value();
    const MlcResult reference = reference_search(for_reference, opt, o, d, dep);
    const std::uint64_t ref_hits = hits.value() - h0;
    const std::uint64_t ref_misses = misses.value() - m0;

    const std::uint64_t h1 = hits.value();
    const std::uint64_t m1 = misses.value();
    const std::uint64_t c1 = checks.value();
    const MlcResult kernel =
        MultiLabelCorrecting(for_kernel, opt).search(o, d, dep);
    EXPECT_EQ(hits.value() - h1, ref_hits) << phase;
    EXPECT_EQ(misses.value() - m1, ref_misses) << phase;
    EXPECT_EQ(checks.value() - c1, kernel.stats.dominance_checks) << phase;
    expect_same(kernel, reference, phase);
    EXPECT_EQ(for_kernel->slot_cache(0).filled_slots(),
              for_reference->slot_cache(0).filled_slots())
        << phase;
    if (std::string(phase) == "cold") {
      EXPECT_GT(ref_misses, 0u);
    } else {
      EXPECT_EQ(ref_misses, 0u);
    }
    EXPECT_GT(ref_hits, 0u) << phase;
  }
}

}  // namespace
}  // namespace sunchase::core
