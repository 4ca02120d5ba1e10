#include "sunchase/core/batch_planner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core_fixture.h"
#include "obs/json_check.h"
#include "sunchase/common/error.h"
#include "sunchase/core/planner.h"
#include "sunchase/obs/query_log.h"
#include "sunchase/obs/trace.h"

namespace sunchase::core {
namespace {

std::vector<BatchQuery> grid_queries(const roadnet::GridCity& city) {
  return {
      {city.node_at(0, 0), city.node_at(7, 7), TimeOfDay::hms(9, 0)},
      {city.node_at(1, 2), city.node_at(8, 5), TimeOfDay::hms(10, 0)},
      {city.node_at(9, 9), city.node_at(0, 0), TimeOfDay::hms(11, 30)},
      {city.node_at(3, 3), city.node_at(3, 3), TimeOfDay::hms(12, 0)},
      {city.node_at(5, 1), city.node_at(2, 8), TimeOfDay::hms(14, 15)},
      {city.node_at(0, 9), city.node_at(9, 0), TimeOfDay::hms(16, 0)},
  };
}

/// A query-log line without mode, index and the timing fields: what
/// the plan and the batch record of one query must share.
std::string without_mode_and_timing(std::string line) {
  for (const char* key :
       {"mode", "index", "mlc_seconds", "kmeans_seconds", "selection_seconds",
        "total_seconds", "cpu_ms", "lower_bound_seconds"}) {
    const std::size_t at = line.find(std::string("\"") + key + "\":");
    if (at == std::string::npos) continue;
    const std::size_t end = line.find_first_of(",}", at);
    line.erase(at, end - at + (line[end] == ',' ? 1 : 0));
  }
  return line;
}

/// Bit-identical equality — no epsilon. A parallel batch must replay
/// exactly the arithmetic of the sequential search.
void expect_identical(const MlcResult& batch, const MlcResult& sequential) {
  ASSERT_EQ(batch.routes.size(), sequential.routes.size());
  for (std::size_t r = 0; r < batch.routes.size(); ++r) {
    EXPECT_EQ(batch.routes[r].cost, sequential.routes[r].cost);
    EXPECT_EQ(batch.routes[r].path.edges, sequential.routes[r].path.edges);
  }
  EXPECT_EQ(batch.stats.labels_created, sequential.stats.labels_created);
  EXPECT_EQ(batch.stats.labels_dominated, sequential.stats.labels_dominated);
  EXPECT_EQ(batch.stats.queue_pops, sequential.stats.queue_pops);
  EXPECT_EQ(batch.stats.pareto_size, sequential.stats.pareto_size);
  EXPECT_EQ(batch.stats.shortest_travel_time.value(),
            sequential.stats.shortest_travel_time.value());
}

TEST(BatchPlanner, MatchesSequentialSearchBitForBit) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  BatchPlannerOptions opt;
  opt.workers = 4;
  const BatchPlanner batch(env.world, opt);
  const MultiLabelCorrecting sequential(env.world, opt.mlc);

  const auto queries = grid_queries(city);
  const BatchResult result = batch.plan_all(queries);

  ASSERT_EQ(result.queries.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(result.queries[i].ok()) << result.queries[i].error;
    expect_identical(*result.queries[i].result,
                     sequential.search(queries[i].origin,
                                       queries[i].destination,
                                       queries[i].departure));
  }
}

TEST(BatchPlanner, SlotPricingMatchesExactBitForBitOnASlotConstantWorld) {
  // RoutingEnv is slot-constant (uniform traffic, slot-indexed shading,
  // constant panel), so the 8-worker SlotQuantized batch — all workers
  // sharing one SlotCostCache — must reproduce the Exact sequential
  // search bit for bit, and the shared cache must actually get hits.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  BatchPlannerOptions opt;
  opt.workers = 8;
  opt.mlc.pricing = PricingMode::SlotQuantized;
  const BatchPlanner batch(env.world, opt);
  MlcOptions exact = opt.mlc;
  exact.pricing = PricingMode::Exact;
  const MultiLabelCorrecting sequential(env.world, exact);

  auto& hits = obs::Registry::global().counter("slotcache.hits");
  const std::uint64_t hits_before = hits.value();

  const auto queries = grid_queries(city);
  const BatchResult result = batch.plan_all(queries);
  EXPECT_GT(hits.value(), hits_before);

  ASSERT_EQ(result.queries.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(result.queries[i].ok()) << result.queries[i].error;
    expect_identical(*result.queries[i].result,
                     sequential.search(queries[i].origin,
                                       queries[i].destination,
                                       queries[i].departure));
  }
}

TEST(BatchPlanner, SlotPricingIsDeterministicAcrossRuns) {
  // Two back-to-back slot-mode batches (cold cache vs warm cache) must
  // agree bit for bit: materialization state never leaks into results.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  BatchPlannerOptions opt;
  opt.workers = 8;
  opt.mlc.pricing = PricingMode::SlotQuantized;
  const BatchPlanner batch(env.world, opt);
  const auto queries = grid_queries(city);
  const BatchResult cold = batch.plan_all(queries);
  const BatchResult warm = batch.plan_all(queries);
  ASSERT_EQ(cold.queries.size(), warm.queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(cold.queries[i].ok());
    ASSERT_TRUE(warm.queries[i].ok());
    expect_identical(*cold.queries[i].result, *warm.queries[i].result);
  }
}

TEST(BatchPlanner, ResultsComeBackInInputOrder) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  BatchPlannerOptions opt;
  opt.workers = 3;
  const BatchPlanner batch(env.world, opt);
  const MultiLabelCorrecting sequential(env.world, opt.mlc);

  const auto queries = grid_queries(city);
  const BatchResult result = batch.plan_all(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(result.queries[i].ok());
    // The lexicographically-first travel time identifies the query.
    EXPECT_EQ(result.queries[i]
                  .result->routes.front()
                  .cost.travel_time.value(),
              sequential
                  .search(queries[i].origin, queries[i].destination,
                          queries[i].departure)
                  .routes.front()
                  .cost.travel_time.value());
  }
}

TEST(BatchPlanner, UnreachableQueryFailsAloneWithoutPoisoningTheBatch) {
  // Island node 4: reachable by nobody.
  test::SquareGraph sq(/*with_island=*/true);
  const roadnet::NodeId island = sq.island;
  test::RoutingEnv env(sq.graph);
  BatchPlannerOptions opt;
  opt.workers = 2;
  const BatchPlanner batch(env.world, opt);

  const std::vector<BatchQuery> queries = {
      {0, 3, TimeOfDay::hms(10, 0)},
      {0, island, TimeOfDay::hms(10, 0)},  // unreachable -> RoutingError
      {1, 3, TimeOfDay::hms(10, 0)},
  };
  const BatchResult result = batch.plan_all(queries);

  ASSERT_EQ(result.queries.size(), 3u);
  EXPECT_TRUE(result.queries[0].ok());
  EXPECT_FALSE(result.queries[1].ok());
  EXPECT_NE(result.queries[1].error.find("unreachable"), std::string::npos);
  EXPECT_TRUE(result.queries[2].ok());
  EXPECT_EQ(result.stats.succeeded, 2u);
  EXPECT_EQ(result.stats.failed, 1u);
}

TEST(BatchPlanner, EmptyBatchIsANoOp) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const BatchPlanner batch(env.world);
  const BatchResult result = batch.plan_all({});
  EXPECT_TRUE(result.queries.empty());
  EXPECT_EQ(result.stats.query_count, 0u);
  EXPECT_EQ(result.stats.queries_per_second, 0.0);
}

TEST(BatchPlanner, MoreWorkersThanQueriesIsClamped) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  BatchPlannerOptions opt;
  opt.workers = 16;
  const BatchPlanner batch(env.world, opt);
  const BatchResult result =
      batch.plan_all({{0, 3, TimeOfDay::hms(10, 0)}});
  ASSERT_EQ(result.queries.size(), 1u);
  EXPECT_TRUE(result.queries[0].ok());
  EXPECT_EQ(result.stats.workers, 1u);
}

TEST(BatchPlanner, StatsAggregateOverSuccessfulQueries) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  BatchPlannerOptions opt;
  opt.workers = 2;
  const BatchPlanner batch(env.world, opt);
  const MultiLabelCorrecting sequential(env.world, opt.mlc);

  const auto queries = grid_queries(city);
  const BatchResult result = batch.plan_all(queries);

  // Summed field by field here, not through MlcStats::operator+=, so a
  // count the batch forgets to add cannot be forgotten on both sides.
  std::size_t labels = 0, dominated = 0, pops = 0, pareto = 0, pruned = 0,
              merged = 0, checks = 0;
  for (const auto& q : queries) {
    const MlcStats single =
        sequential.search(q.origin, q.destination, q.departure).stats;
    labels += single.labels_created;
    dominated += single.labels_dominated;
    pops += single.queue_pops;
    pareto += single.pareto_size;
    pruned += single.labels_pruned_bound;
    merged += single.labels_merged_epsilon;
    checks += single.dominance_checks;
  }
  const MlcStats& totals = result.stats.totals;
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(totals.labels_created, labels);
  EXPECT_EQ(totals.labels_dominated, dominated);
  EXPECT_EQ(totals.queue_pops, pops);
  EXPECT_EQ(totals.pareto_size, pareto);
  EXPECT_EQ(totals.labels_pruned_bound, pruned);
  EXPECT_EQ(totals.labels_merged_epsilon, merged);
  EXPECT_EQ(totals.dominance_checks, checks);
  EXPECT_EQ(result.stats.query_count, queries.size());
  EXPECT_EQ(result.stats.succeeded, queries.size());
  EXPECT_GT(result.stats.wall_seconds, 0.0);
  EXPECT_GT(result.stats.queries_per_second, 0.0);
}

TEST(BatchPlanner, LatencyPercentilesComeFromTheBatchHistogram) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  BatchPlannerOptions opt;
  opt.workers = 2;
  const BatchPlanner batch(env.world, opt);
  const BatchResult result = batch.plan_all(grid_queries(city));

  // One histogram observation per query; percentiles come from the
  // shared HistogramSnapshot::quantile, not batch-local math.
  EXPECT_EQ(result.stats.latency.count, grid_queries(city).size());
  EXPECT_GT(result.stats.latency.quantile(0.50), 0.0);
  EXPECT_GE(result.stats.latency.quantile(0.95),
            result.stats.latency.quantile(0.50));
  EXPECT_GE(result.stats.latency.max, result.stats.latency.quantile(0.95));
  // Per-query in-worker latency can never exceed the batch wall clock.
  EXPECT_LE(result.stats.latency.max, result.stats.wall_seconds + 1e-9);
}

TEST(BatchPlanner, EmptyBatchHasZeroLatencyPercentiles) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const BatchPlanner batch(env.world);
  const BatchResult result = batch.plan_all({});
  EXPECT_EQ(result.stats.latency.count, 0u);
  EXPECT_EQ(result.stats.latency.quantile(0.50), 0.0);
  EXPECT_EQ(result.stats.latency.quantile(0.95), 0.0);
  EXPECT_EQ(result.stats.latency.max, 0.0);
}

TEST(BatchPlanner, SelectionOffByDefault) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const BatchPlanner batch(env.world);
  const BatchResult result =
      batch.plan_all({{0, 3, TimeOfDay::hms(10, 0)}});
  ASSERT_TRUE(result.queries[0].ok());
  EXPECT_FALSE(result.queries[0].selection.has_value());
}

TEST(BatchPlanner, RunSelectionYieldsCandidatesPerQuery) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  BatchPlannerOptions opt;
  opt.workers = 2;
  opt.run_selection = true;
  const BatchPlanner batch(env.world, opt);
  const BatchResult result = batch.plan_all(grid_queries(city));

  for (const auto& q : result.queries) {
    ASSERT_TRUE(q.ok()) << q.error;
    ASSERT_TRUE(q.selection.has_value());
    // Selection always reports the shortest-time route first.
    ASSERT_FALSE(q.selection->candidates.empty());
    EXPECT_TRUE(q.selection->candidates.front().is_shortest_time);
    EXPECT_LE(q.selection->candidates.size(), q.result->routes.size());
  }
}

TEST(BatchPlanner, QueryLogGetsExactlyOneRecordPerQuery) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  std::ostringstream sink;
  obs::QueryLog log(sink);
  BatchPlannerOptions opt;
  opt.workers = 4;
  opt.run_selection = true;
  opt.query_log = &log;
  const BatchPlanner batch(env.world, opt);

  const auto queries = grid_queries(city);
  const BatchResult result = batch.plan_all(queries);
  ASSERT_EQ(result.stats.succeeded, queries.size());
  EXPECT_EQ(log.record_count(), queries.size());

  // One valid JSONL line per query, each carrying its batch index
  // exactly once (workers write concurrently; no torn lines allowed).
  std::vector<std::string> lines;
  std::istringstream in(sink.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), queries.size());
  std::set<std::string> indices;
  for (const std::string& l : lines) {
    EXPECT_TRUE(test::json_parses(l)) << l;
    EXPECT_NE(l.find("\"mode\":\"batch\""), std::string::npos);
    const auto at = l.find("\"index\":");
    ASSERT_NE(at, std::string::npos) << l;
    const auto start = at + 8;
    indices.insert(l.substr(start, l.find(',', start) - start));
  }
  EXPECT_EQ(indices.size(), queries.size());
}

TEST(BatchPlanner, EveryQueryCarriesPositiveCpuAccounting) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  std::ostringstream sink;
  obs::QueryLog log(sink);
  BatchPlannerOptions opt;
  opt.workers = 4;
  opt.query_log = &log;
  const BatchPlanner batch(env.world, opt);

  const BatchResult result = batch.plan_all(grid_queries(city));
  ASSERT_GT(result.stats.succeeded, 0u);
  // Batch-level CPU is the sum over workers; each successful query
  // contributes its own strictly positive worker-thread delta.
  EXPECT_GT(result.stats.cpu_seconds, 0.0);
  double summed = 0.0;
  for (const auto& q : result.queries) {
    if (!q.ok()) continue;
    EXPECT_GT(q.cpu_seconds, 0.0);
    summed += q.cpu_seconds;
  }
  EXPECT_DOUBLE_EQ(result.stats.cpu_seconds, summed);

  // Every JSONL record — this is the per-query resource-accounting
  // contract — carries cpu_ms > 0.
  std::istringstream in(sink.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    if (line.find("\"status\":\"error\"") != std::string::npos) continue;
    const auto at = line.find("\"cpu_ms\":");
    ASSERT_NE(at, std::string::npos) << line;
    EXPECT_GT(std::strtod(line.c_str() + at + 9, nullptr), 0.0) << line;
  }
  EXPECT_EQ(lines, result.queries.size());
}

TEST(BatchPlanner, FailedQueriesStillProduceAnErrorRecord) {
  test::SquareGraph sq(/*with_island=*/true);
  const roadnet::NodeId island = sq.island;
  test::RoutingEnv env(sq.graph);
  std::ostringstream sink;
  obs::QueryLog log(sink);
  BatchPlannerOptions opt;
  opt.workers = 2;
  opt.query_log = &log;
  const BatchPlanner batch(env.world, opt);

  const std::vector<BatchQuery> queries = {
      {0, 3, TimeOfDay::hms(10, 0)},
      {0, island, TimeOfDay::hms(10, 0)},  // unreachable -> RoutingError
      {1, 3, TimeOfDay::hms(10, 0)},
  };
  const BatchResult result = batch.plan_all(queries);
  EXPECT_EQ(result.stats.failed, 1u);
  EXPECT_EQ(log.record_count(), queries.size());
  const std::string text = sink.str();
  EXPECT_NE(text.find("unreachable"), std::string::npos);

  // The worker writes the error record itself: timed like any other
  // query and stamped with the snapshot it pinned.
  const std::size_t begin = text.find("\"index\":1,");
  ASSERT_NE(begin, std::string::npos);
  const std::string line = text.substr(begin, text.find('\n', begin) - begin);
  EXPECT_NE(line.find("\"status\":\"error\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"world.version\":" +
                      std::to_string(batch.world()->version()) + ","),
            std::string::npos)
      << line;
  const std::size_t total = line.find("\"total_seconds\":");
  ASSERT_NE(total, std::string::npos) << line;
  EXPECT_GT(std::strtod(line.c_str() + total + 16, nullptr), 0.0) << line;
}

TEST(BatchPlanner, OneQueryBatchWritesTheRecordPlanWrites) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  // Both records must carry the same request trace id.
  const obs::TraceScope trace(obs::TraceContext::generate());
  const BatchQuery query{city.node_at(1, 1), city.node_at(8, 8),
                         TimeOfDay::hms(10, 0)};
  for (const PricingMode pricing :
       {PricingMode::Exact, PricingMode::SlotQuantized}) {
    std::ostringstream plan_sink;
    obs::QueryLog plan_log(plan_sink);
    PlannerOptions plan_options;
    plan_options.mlc.pricing = pricing;
    plan_options.query_log = &plan_log;
    const SunChasePlanner planner(env.world, plan_options);
    (void)planner.plan(query.origin, query.destination, query.departure);

    std::ostringstream batch_sink;
    obs::QueryLog batch_log(batch_sink);
    BatchPlannerOptions batch_options;
    batch_options.workers = 1;
    batch_options.mlc.pricing = pricing;
    batch_options.run_selection = true;
    batch_options.query_log = &batch_log;
    const BatchPlanner batch(env.world, batch_options);
    ASSERT_EQ(batch.plan_all({query}).stats.succeeded, 1u);

    const std::string plan_record = plan_sink.str();
    const std::string batch_record = batch_sink.str();
    EXPECT_TRUE(plan_record.starts_with("{\"mode\":\"plan\",\"origin\":"))
        << plan_record;
    EXPECT_TRUE(batch_record.starts_with("{\"mode\":\"batch\",\"index\":0,"))
        << batch_record;
    EXPECT_NE(plan_record.find("\"trace_id\":"), std::string::npos);
    EXPECT_NE(plan_record.find("\"travel_time_s\":"), std::string::npos);
    EXPECT_EQ(without_mode_and_timing(plan_record),
              without_mode_and_timing(batch_record))
        << pricing_name(pricing);
  }
}

TEST(BatchPlanner, InvalidMlcOptionsRejectedAtConstruction) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  BatchPlannerOptions bad;
  bad.mlc.max_time_factor = -1.0;
  EXPECT_THROW(BatchPlanner(env.world, bad), InvalidArgument);
}

}  // namespace
}  // namespace sunchase::core
