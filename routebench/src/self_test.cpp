// Self-tests of the benchmark's own arithmetic and checker: quantiles
// on known samples, self-time subtraction over nested spans, and the
// rejection of tampered answers. Run by run.py before every benchmark
// run; a failure stops the run before any number is reported.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "measure.h"

namespace sunchase::routebench {

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (condition) return;
  ++failures;
  std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
}

void expect_near(double actual, double expected, const std::string& what) {
  expect(std::fabs(actual - expected) <= 1e-9 * std::max(1.0, std::fabs(expected)),
         what + ": got " + std::to_string(actual) + ", want " +
             std::to_string(expected));
}

serve::HttpResponse json(int status, std::string body) {
  serve::HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

std::string candidate(bool shortest, double travel_s, double energy_wh,
                      double extra_s) {
  return std::string("{\"shortest_time\":") + (shortest ? "true" : "false") +
         ",\"battery_feasible\":true,\"edges\":12,\"length_m\":1500,"
         "\"travel_time_s\":" + std::to_string(travel_s) +
         ",\"solar_time_s\":300,\"shaded_time_s\":" +
         std::to_string(travel_s - 300) +
         ",\"energy_in_wh\":20,\"energy_out_wh\":" + std::to_string(energy_wh) +
         ",\"net_drain_wh\":80,\"extra_energy_wh\":0,\"extra_time_s\":" +
         std::to_string(extra_s) + "}";
}

std::string plan_answer(const std::string& candidates) {
  return "{\"query_id\":7,\"world_version\":1,\"candidates\":[" + candidates +
         "]}";
}

/// quantile() of 1, 2, ..., 1000.
double quantile_of_1_to_1000(double q) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  return quantile(v, q);
}

void test_quantiles() {
  expect_near(quantile({1, 2, 3, 4}, 0.5), 2.5, "median of 1..4");
  expect_near(quantile({1, 2, 3, 4}, 0.9), 3.7, "p90 of 1..4");
  expect_near(quantile({4, 1, 3, 2}, 0.25), 1.75, "p25 of unsorted 1..4");
  expect_near(median({5, 1, 4, 2, 3}), 3.0, "median of 5 values");
  expect_near(quantile({10}, 0.9), 10.0, "p90 of one value");
  expect_near(quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9), 10.0,
              "p90 of 1..11");
  bool threw = false;
  try {
    (void)quantile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "quantile of an empty sample throws");
}

/// Within the histogram's 0.1 % bins.
void expect_within_bin(double actual, double expected,
                       const std::string& what) {
  expect(std::fabs(actual - expected) <= 1e-3 * expected,
         what + ": got " + std::to_string(actual) + ", want " +
             std::to_string(expected));
}

void test_latency_histogram() {
  LatencyHistogram h;
  expect(h.quantile_ms(0.5) == 0.0, "an empty histogram reads as 0");
  for (int ms = 1000; ms >= 1; --ms) h.add(ms);
  expect(h.count() == 1000, "every latency counts");
  expect_within_bin(h.quantile_ms(0.5), quantile_of_1_to_1000(0.5),
                    "median of 1..1000 ms");
  expect_within_bin(h.quantile_ms(0.9), quantile_of_1_to_1000(0.9),
                    "p90 of 1..1000 ms");
  expect_within_bin(h.quantile_ms(0.0), 1.0, "least of 1..1000 ms");
  expect_within_bin(h.quantile_ms(1.0), 1000.0, "greatest of 1..1000 ms");

  expect_within_bin(h.trimmed_mean_ms(0.0), 500.5, "mean of 1..1000 ms");
  expect_within_bin(h.trimmed_mean_ms(0.1), 500.5,
                    "mean of 101..900 ms, the middle 80 %");
  expect(LatencyHistogram().trimmed_mean_ms(0.1) == 0.0,
         "an empty trimmed mean reads as 0");

  // Two speeds and a stall: the trimmed mean follows the mix, the
  // median jumps from one speed to the other.
  LatencyHistogram mix;
  for (int i = 0; i < 45; ++i) mix.add(2.0);
  for (int i = 0; i < 54; ++i) mix.add(3.0);
  mix.add(100.0);
  expect_within_bin(mix.quantile_ms(0.5), 3.0, "median of the mix");
  // Middle 80 of 100: 35 x 2 ms and 45 x 3 ms.
  expect_within_bin(mix.trimmed_mean_ms(0.1), (35 * 2.0 + 45 * 3.0) / 80,
                    "trimmed mean of the mix, the stall cut");

  LatencyHistogram same;
  for (int i = 0; i < 50; ++i) same.add(0.125);
  expect_within_bin(same.quantile_ms(0.5), 0.125, "median of equal values");
  expect_within_bin(same.quantile_ms(0.9), 0.125, "p90 of equal values");

  LatencyHistogram two;
  for (int i = 0; i < 9; ++i) two.add(0.2);
  two.add(50.0);
  expect_within_bin(two.quantile_ms(0.5), 0.2, "a slow outlier leaves p50");
  expect_within_bin(two.quantile_ms(0.99), 0.2,
                    "rank 8.91 of 0..9 is still a 0.2 ms latency");
  expect_within_bin(two.quantile_ms(1.0), 50.0, "rank 9 is the outlier");
}

void test_trailing_median() {
  TrailingMedian m(3);
  expect(m.empty(), "a new window is empty");
  m.push(5);
  expect_near(m.value(), 5.0, "one value");
  m.push(1);
  m.push(9);
  expect_near(m.value(), 5.0, "median of 5, 1, 9");
  m.push(2);  // 5 leaves the window
  expect_near(m.value(), 2.0, "median of 1, 9, 2");
  m.push(100);
  m.push(101);
  expect_near(m.value(), 100.0, "median of 2, 100, 101");
}

void test_clock_probe() {
  const ClockProbe probe;
  const double factor = probe.factor();
  // Any real host runs the kernel between 20x faster and 20x slower
  // than the reference.
  expect(factor > 0.05 && factor < 20.0,
         "the probe measures a plausible clock: factor " +
             std::to_string(factor));
}

Span span(std::uint64_t id, const char* name, double start, double end,
          std::uint64_t parent) {
  Span s;
  s.id = id;
  s.name = name;
  s.start_us = start;
  s.end_us = end;
  s.parent = parent;
  s.request = 1;
  return s;
}

void test_self_times() {
  // root [0,100] > a [10,30], b [40,70] > c [45,55]; a second root
  // [200,300] with only a [210,230].
  const SpanTree tree({span(1, "root", 0, 100, 0), span(2, "a", 10, 30, 1),
                       span(3, "b", 40, 70, 1), span(4, "c", 45, 55, 3),
                       span(5, "root", 200, 300, 0),
                       span(6, "a", 210, 230, 5)});
  const std::vector<double> root_self = tree.self_us("root");
  expect(root_self.size() == 2, "two root spans");
  expect_near(root_self.at(0), 50.0, "root self = 100 - 20 - 30");
  expect_near(root_self.at(1), 80.0, "second root self = 100 - 20");
  expect_near(tree.self_us("b").at(0), 20.0, "b self = 30 - 10");
  expect_near(tree.self_us("c").at(0), 10.0, "leaf self = duration");
  expect_near(tree.minus_child_us("root", "b").at(0), 70.0,
              "root minus its b child");
  expect(tree.minus_child_us("root", "b").size() == 1,
         "a root without a b child is skipped");

  const std::vector<LayerShare> rows = tree.shares("root");
  expect(rows.size() == 4, "one share row per layer");
  double total = 0.0;
  for (const LayerShare& row : rows) total += row.share;
  expect_near(total, 1.0, "shares sum to the round trip");
  expect(rows.at(0).name == "root" && rows.at(0).depth == 0, "root first");
  expect_near(rows.at(0).mean_self_us, 65.0, "root mean self (50 + 80) / 2");
  expect_near(rows.at(1).share, 40.0 / 200.0, "a: 2 x 20 us of 200 us");
  expect(rows.at(3).name == "c" && rows.at(3).depth == 2, "c at depth 2");
  expect(tree.shares("missing").empty(), "no rows without a root");
}

void test_plan_checks() {
  PlanAnswer answer;
  const std::string good = plan_answer(candidate(true, 600.5, 100, 0) + "," +
                                       candidate(false, 660.5, 104, 60));
  expect(check_plan(json(200, good), 600.5, kExactPricingExcess, answer).empty(),
         "a correct /plan answer passes");
  expect(answer.query_id == 7 && answer.world_version == 1,
         "query id and version are read");

  PlanAnswer tampered;
  expect(!check_plan(json(200, plan_answer(candidate(true, 600.6, 100, 0))),
                     600.5, kExactPricingExcess, tampered)
              .empty(),
         "a changed candidate cost is rejected");
  expect(!check_plan(json(200, plan_answer(candidate(false, 600.5, 100, 0))),
                     600.5, kExactPricingExcess, tampered)
              .empty(),
         "a first candidate that is not the shortest-time route is rejected");
  expect(!check_plan(json(500, good), 600.5, kExactPricingExcess, tampered).empty(),
         "a 500 answer is rejected");
  expect(!check_plan(json(429, good), 600.5, kExactPricingExcess, tampered).empty(),
         "a 429 answer is rejected");
  expect(!check_plan(json(200, plan_answer("")), 600.5, kExactPricingExcess, tampered).empty(),
         "an answer without candidates is rejected");
  expect(!check_plan(json(200, "{\"query_id\":"), 600.5, kExactPricingExcess, tampered).empty(),
         "a truncated body is rejected");

  // Slot pricing may find a shortest-time route up to 1 % slower, never
  // a faster one.
  expect(check_plan(json(200, plan_answer(candidate(true, 605.0, 100, 0))),
                    600.5, kSlotPricingExcess, tampered)
             .empty(),
         "slot pricing: a shortest-time route 0.7 % slower passes");
  expect(!check_plan(json(200, plan_answer(candidate(true, 610.0, 100, 0))),
                     600.5, kSlotPricingExcess, tampered)
              .empty(),
         "slot pricing: a route 1.6 % slower is rejected");
  expect(!check_plan(json(200, plan_answer(candidate(true, 600.4, 100, 0))),
                     600.5, kSlotPricingExcess, tampered)
              .empty(),
         "slot pricing: a route faster than the shortest path is rejected");

  PlanAnswer again;
  (void)check_plan(json(200, good), 600.5, kExactPricingExcess, again);
  expect(again.fingerprint == answer.fingerprint,
         "identical answers share a fingerprint");
  (void)check_plan(json(200, plan_answer(candidate(true, 600.5, 100, 0) + "," +
                                         candidate(false, 660.5, 105, 60))),
                   600.5, kExactPricingExcess, again);
  expect(again.fingerprint != answer.fingerprint,
         "a changed later candidate changes the fingerprint");
}

void test_batch_checks() {
  const auto row = [](int index, const std::string& status, double travel,
                      double extra) {
    return "{\"index\":" + std::to_string(index) + ",\"status\":\"" + status +
           "\",\"query_id\":" + std::to_string(10 + index) +
           ",\"world_version\":2,\"candidates\":2,\"recommended\":" +
           candidate(extra == 0.0, travel, 100, extra) + "}";
  };
  const std::vector<double> shortest = {500.0, 700.0};
  BatchAnswer answer;
  expect(check_batch(json(200, "{\"results\":[" + row(0, "ok", 500, 0) + "," +
                                   row(1, "ok", 760, 60) + "]}"),
                     shortest, kExactPricingExcess, answer)
             .empty(),
         "a correct /batch answer passes");
  expect(answer.query_ids == std::vector<std::uint64_t>{10, 11} &&
             answer.world_versions == std::vector<std::uint64_t>{2, 2},
         "row ids and versions are read");
  expect(!check_batch(json(200, "{\"results\":[" + row(0, "ok", 500, 0) + "," +
                                    row(1, "error", 760, 60) + "]}"),
                      shortest, kExactPricingExcess, answer)
              .empty(),
         "a row that is not ok is rejected");
  expect(!check_batch(json(200, "{\"results\":[" + row(0, "ok", 500, 0) + "," +
                                    row(1, "ok", 770, 60) + "]}"),
                      shortest, kExactPricingExcess, answer)
              .empty(),
         "a recommended route priced off its shortest time is rejected");
  expect(!check_batch(json(200, "{\"results\":[" + row(0, "ok", 500, 0) + "]}"),
                      shortest, kExactPricingExcess, answer)
              .empty(),
         "a missing row is rejected");
  expect(!check_batch(json(503, ""), shortest, kExactPricingExcess, answer).empty(),
         "a 503 answer is rejected");
}

void test_explain_and_version_checks() {
  expect(check_explain(json(200, "{\"world_version\":3,\"conserves\":true,"
                                 "\"max_deviation\":0}"),
                       3)
             .empty(),
         "a conserving ledger on the pinned world passes");
  expect(!check_explain(json(200, "{\"world_version\":3,\"conserves\":false,"
                                  "\"max_deviation\":0.5}"),
                        3)
              .empty(),
         "a non-conserving ledger is rejected");
  expect(!check_explain(json(200, "{\"world_version\":4,\"conserves\":true,"
                                  "\"max_deviation\":0}"),
                        3)
              .empty(),
         "a replay on another world is rejected");
  expect(!check_explain(json(404, "{\"error\":\"evicted\"}"), 3).empty(),
         "a 404 explain is rejected");
  expect(check_world_version(json(200, "{\"world_version\":5}"), 5).empty(),
         "the predicted world version passes");
  expect(!check_world_version(json(200, "{\"world_version\":5}"), 6).empty(),
         "a lost publish is rejected");
}

void test_same_candidates() {
  core::PlanResult direct;
  core::CandidateRoute c;
  c.is_shortest_time = true;
  c.route.path.edges.assign(12, 0);
  c.metrics.total_length = Meters{1500};
  c.metrics.travel_time = Seconds{600.5};
  c.metrics.solar_time = Seconds{300};
  c.metrics.shaded_time = Seconds{300.5};
  c.metrics.energy_in = WattHours{20};
  c.metrics.energy_out = WattHours{100};
  direct.candidates.push_back(c);

  PlanAnswer answer;
  (void)check_plan(json(200, plan_answer(candidate(true, 600.5, 100, 0))),
                   600.5, kExactPricingExcess, answer);
  expect(check_same_candidates(direct, answer.candidates).empty(),
         "the planner's own candidates match the answer");
  (void)check_plan(json(200, plan_answer(candidate(true, 600.5, 101, 0))),
                   600.5, kExactPricingExcess, answer);
  expect(!check_same_candidates(direct, answer.candidates).empty(),
         "a changed energy is rejected");
  direct.candidates.push_back(c);
  (void)check_plan(json(200, plan_answer(candidate(true, 600.5, 100, 0))),
                   600.5, kExactPricingExcess, answer);
  expect(!check_same_candidates(direct, answer.candidates).empty(),
         "a missing candidate is rejected");
}

}  // namespace

int run_self_tests() {
  test_quantiles();
  test_latency_histogram();
  test_trailing_median();
  test_clock_probe();
  test_self_times();
  test_plan_checks();
  test_batch_checks();
  test_explain_and_version_checks();
  test_same_candidates();
  if (failures != 0) {
    std::fprintf(stderr, "routebench self-test: %d failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "routebench self-test: ok\n");
  return 0;
}

}  // namespace sunchase::routebench
