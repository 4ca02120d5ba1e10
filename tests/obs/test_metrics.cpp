#include "sunchase/obs/metrics.h"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "json_check.h"
#include "sunchase/common/error.h"
#include "sunchase/common/thread_pool.h"

namespace sunchase::obs {
namespace {

TEST(ObsCounter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, LastWriteWins) {
  Gauge g;
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(ObsGauge, ConcurrentAddDeltasNeverLoseUpdates) {
  // add() must be a single fetch_add: racing +1/-1 pairs (the serve
  // in-flight gauge pattern) end balanced at exactly zero.
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPairs = 2000;
  std::vector<std::future<void>> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.push_back(std::async(std::launch::async, [&g] {
      for (int i = 0; i < kPairs; ++i) {
        g.add(1.0);
        g.add(-1.0);
      }
    }));
  }
  for (auto& w : workers) w.get();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(ObsHistogram, RejectsBadBoundaries) {
  EXPECT_THROW(Histogram{std::vector<double>{}}, InvalidArgument);
  EXPECT_THROW((Histogram{std::vector<double>{1.0, 1.0}}), InvalidArgument);
  EXPECT_THROW((Histogram{std::vector<double>{2.0, 1.0}}), InvalidArgument);
}

TEST(ObsHistogram, BucketsCountSumMinMax) {
  Histogram h({1.0, 10.0, 100.0});
  for (const double v : {0.5, 1.0, 5.0, 50.0, 500.0}) h.observe(v);
  const HistogramSnapshot snap = h.snapshot();
  // Prometheus-style le (<=) bucketing: 1.0 lands in the first bucket.
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);  // +Inf overflow
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 556.5);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 500.0);
}

TEST(ObsHistogram, EmptySnapshotIsAllZero) {
  Histogram h({1.0});
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.0);
  EXPECT_EQ(snap.quantile(0.5), 0.0);
}

TEST(ObsHistogram, QuantilesInterpolateAndClampToObservedRange) {
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i % 30) + 1.0);
  const HistogramSnapshot snap = h.snapshot();
  const double p50 = snap.quantile(0.5);
  const double p95 = snap.quantile(0.95);
  EXPECT_GE(p50, snap.min);
  EXPECT_LE(p50, snap.max);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, snap.max);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), snap.max);
}

TEST(ObsHistogram, QuantileExactOnSingleBucketEdges) {
  Histogram h({1.0, 2.0, 3.0});
  h.observe(2.5);  // one observation: every quantile is that value
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 2.5);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.99), 2.5);
}

TEST(ObsRegistry, FindsOrCreatesAndKeepsHandlesStable) {
  Registry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(reg.snapshot().counters.at("x.count"), 7u);
}

TEST(ObsRegistry, RejectsKindCollisionsAndBoundaryMismatch) {
  Registry reg;
  reg.counter("name");
  EXPECT_THROW(reg.gauge("name"), InvalidArgument);
  EXPECT_THROW(reg.histogram("name"), InvalidArgument);
  reg.histogram("h", {1.0, 2.0});
  EXPECT_NO_THROW(reg.histogram("h", {1.0, 2.0}));
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), InvalidArgument);
}

TEST(ObsRegistry, ResetValuesKeepsRegistrations) {
  Registry reg;
  Counter& c = reg.counter("c");
  reg.gauge("g").set(5.0);
  reg.histogram("h", {1.0}).observe(0.5);
  c.add(3);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 0u);
  EXPECT_EQ(snap.gauges.at("g"), 0.0);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
}

TEST(ObsRegistry, GlobalIsAProcessSingleton) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
}

TEST(ObsRegistry, SnapshotRendersValidJson) {
  Registry reg;
  reg.counter("mlc.labels_created").add(12);
  reg.gauge("batch.throughput_qps").set(123.456);
  reg.histogram("lat", {0.001, 0.1}).observe(0.05);
  const std::string json = reg.snapshot().to_json();
  EXPECT_TRUE(test::json_parses(json)) << json;
  EXPECT_NE(json.find("\"mlc.labels_created\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
  // The indent variant must stay valid JSON too (it is embedded in
  // BENCH_batch.json and --metrics-out reports).
  EXPECT_TRUE(test::json_parses(reg.snapshot().to_json(4)));
}

TEST(ObsRegistry, PrometheusExposition) {
  Registry reg;
  reg.counter("mlc.labels_created").add(3);
  reg.gauge("batch.throughput_qps").set(9.5);
  Histogram& h = reg.histogram("mlc.query_latency_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  const std::string text = reg.snapshot().to_prometheus();
  // Dotted registry names become underscore Prometheus names.
  EXPECT_NE(text.find("# TYPE mlc_labels_created counter"),
            std::string::npos);
  EXPECT_NE(text.find("mlc_labels_created 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE batch_throughput_qps gauge"),
            std::string::npos);
  // Histogram buckets are cumulative and end at +Inf == count.
  EXPECT_NE(text.find("mlc_query_latency_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("mlc_query_latency_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("mlc_query_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("mlc_query_latency_seconds_count 3"),
            std::string::npos);
}

TEST(ObsLabels, SeriesKeySortsKeysAndEscapesValues) {
  // Key order in the input must not matter: identity sorts by key.
  EXPECT_EQ(series_key("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=\"1\",b=\"2\"}");
  EXPECT_EQ(series_key("m", {{"a", "1"}, {"b", "2"}}),
            "m{a=\"1\",b=\"2\"}");
  EXPECT_EQ(series_key("m", {}), "m");
  // Exposition-format escaping: backslash, quote, newline.
  EXPECT_EQ(series_key("m", {{"k", "a\"b\\c\nd"}}),
            "m{k=\"a\\\"b\\\\c\\nd\"}");
  // Label keys are sanitized to the Prometheus charset.
  EXPECT_EQ(series_key("m", {{"bad-key", "v"}}), "m{bad_key=\"v\"}");

  EXPECT_THROW(series_key("", {}), InvalidArgument);
  EXPECT_THROW(series_key("m", {{"", "v"}}), InvalidArgument);
  EXPECT_THROW(series_key("m", {{"a", "1"}, {"a", "2"}}), InvalidArgument);
}

TEST(ObsLabels, LabeledSeriesAreIndependentOfEachOtherAndTheBareName) {
  Registry reg;
  Counter& bare = reg.counter("serve.requests");
  Counter& plan = reg.counter("serve.requests", {{"endpoint", "/plan"}});
  Counter& batch = reg.counter("serve.requests", {{"endpoint", "/batch"}});
  EXPECT_NE(&bare, &plan);
  EXPECT_NE(&plan, &batch);
  // Same labels in any order resolve to the same series.
  Counter& a = reg.counter("x", {{"k1", "v"}, {"k2", "w"}});
  Counter& b = reg.counter("x", {{"k2", "w"}, {"k1", "v"}});
  EXPECT_EQ(&a, &b);

  bare.add(1);
  plan.add(2);
  batch.add(3);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("serve.requests"), 1u);
  EXPECT_EQ(snap.counters.at("serve.requests{endpoint=\"/plan\"}"), 2u);
  EXPECT_EQ(snap.counters.at("serve.requests{endpoint=\"/batch\"}"), 3u);
}

TEST(ObsLabels, KindCollisionAcrossLabeledSeriesThrows) {
  Registry reg;
  reg.counter("m", {{"a", "1"}});
  EXPECT_THROW(reg.gauge("m", {{"b", "2"}}), InvalidArgument);
  EXPECT_THROW(reg.histogram("m", {{"c", "3"}}, {0.5}), InvalidArgument);
  // Histogram boundary agreement is enforced per family across series.
  reg.histogram("h", {{"a", "1"}}, {0.5, 1.0});
  EXPECT_THROW(reg.histogram("h", {{"a", "2"}}, {0.25}), InvalidArgument);
}

TEST(ObsLabels, PrometheusRendersLabeledSeriesGroupedPerFamily) {
  Registry reg;
  reg.counter("serve.requests").add(6);
  reg.counter("serve.requests",
              {{"endpoint", "/plan"}, {"status", "200"}})
      .add(4);
  reg.counter("serve.requests",
              {{"endpoint", "/batch"}, {"status", "200"}})
      .add(2);
  // A second family whose name sorts between the bare and labeled
  // series keys — grouping must keep each family contiguous anyway.
  reg.counter("serve.requestz").add(1);

  const std::string text = reg.snapshot().to_prometheus();
  EXPECT_NE(text.find("serve_requests 6"), std::string::npos) << text;
  EXPECT_NE(
      text.find("serve_requests{endpoint=\"/plan\",status=\"200\"} 4"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("serve_requests{endpoint=\"/batch\",status=\"200\"} 2"),
      std::string::npos);

  // # TYPE appears exactly once per family, before all its series.
  std::size_t type_count = 0;
  for (std::size_t pos = text.find("# TYPE serve_requests counter");
       pos != std::string::npos;
       pos = text.find("# TYPE serve_requests counter", pos + 1))
    ++type_count;
  EXPECT_EQ(type_count, 1u);
  // Every series of the family renders after its one TYPE line.
  EXPECT_LT(text.find("# TYPE serve_requests counter"),
            text.find("serve_requests{endpoint=\"/batch\""));
  EXPECT_LT(text.find("# TYPE serve_requests counter"),
            text.find("serve_requests 6"));
}

TEST(ObsLabels, PrometheusEscapesLabelValues) {
  Registry reg;
  reg.counter("m", {{"path", "a\\b\"c\nd"}}).add(1);
  const std::string text = reg.snapshot().to_prometheus();
  EXPECT_NE(text.find("m{path=\"a\\\\b\\\"c\\nd\"} 1"), std::string::npos)
      << text;
}

TEST(ObsLabels, HistogramMergesLeAfterUserLabels) {
  Registry reg;
  Histogram& h =
      reg.histogram("serve.latency_seconds", {{"endpoint", "/plan"}},
                    {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  const std::string text = reg.snapshot().to_prometheus();
  EXPECT_NE(text.find("serve_latency_seconds_bucket{endpoint=\"/plan\","
                      "le=\"0.1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("serve_latency_seconds_bucket{endpoint=\"/plan\","
                      "le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_seconds_sum{endpoint=\"/plan\"}"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_seconds_count{endpoint=\"/plan\"} 3"),
            std::string::npos);
}

TEST(ObsLabels, SnapshotJsonStaysValidWithLabeledKeys) {
  Registry reg;
  reg.counter("m", {{"k", "quote\"and\\slash"}}).add(1);
  // Label values may be any UTF-8, control characters included.
  reg.counter("c", {{"k", "a\x01" "b"}}).add(1);
  reg.histogram("h", {{"endpoint", "/plan"}}, {0.5}).observe(0.1);
  const std::string json = reg.snapshot().to_json();
  EXPECT_TRUE(test::json_parses(json)) << json;
  EXPECT_NE(json.find("a\\u0001b"), std::string::npos) << json;
  EXPECT_TRUE(test::json_parses(reg.snapshot().to_json(2)));
}

TEST(ObsLabels, CardinalityCapClampsToOverflowSeries) {
  Registry reg;
  std::vector<Counter*> first;
  for (std::size_t i = 0; i < Registry::kMaxSeriesPerFamily; ++i)
    first.push_back(
        &reg.counter("hot", {{"id", std::to_string(i)}}));

  // Past the cap every new label set lands on ONE shared overflow
  // series, and each clamp is itself counted.
  Counter& overflow_a =
      reg.counter("hot", {{"id", "way-too-many"}});
  Counter& overflow_b =
      reg.counter("hot", {{"id", "still-too-many"}});
  EXPECT_EQ(&overflow_a, &overflow_b);
  for (Counter* c : first) EXPECT_NE(c, &overflow_a);
  // Existing series stay reachable after the cap.
  EXPECT_EQ(&reg.counter("hot", {{"id", "3"}}), first[3]);

  overflow_a.add(5);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("hot{overflow=\"true\"}"), 5u);
  EXPECT_GE(snap.counters.at("obs.metrics.series_overflow"), 2u);
}

// The concurrency contract: relaxed atomic updates from many pool
// workers must lose nothing. Exact totals, no epsilon.
TEST(ObsConcurrency, CounterHammeredFromThreadPoolIsExact) {
  Registry reg;
  Counter& c = reg.counter("hammer");
  constexpr int kWorkers = 4;
  constexpr int kPerWorker = 100'000;
  common::ThreadPool pool(kWorkers);
  std::vector<std::future<void>> futures;
  for (int w = 0; w < kWorkers; ++w)
    futures.push_back(pool.submit([&c] {
      for (int i = 0; i < kPerWorker; ++i) c.add();
    }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kWorkers) * kPerWorker);
}

TEST(ObsConcurrency, HistogramHammeredFromThreadPoolIsExact) {
  Registry reg;
  Histogram& h = reg.histogram("lat", {1.0, 2.0, 3.0});
  constexpr int kWorkers = 4;
  constexpr int kPerWorker = 50'000;
  common::ThreadPool pool(kWorkers);
  std::vector<std::future<void>> futures;
  for (int w = 0; w < kWorkers; ++w)
    futures.push_back(pool.submit([&h, w] {
      for (int i = 0; i < kPerWorker; ++i)
        h.observe(static_cast<double>(w));  // worker w -> bucket of value w
    }));
  for (auto& f : futures) f.get();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kWorkers) * kPerWorker);
  // Values 0,1 land in le=1; 2 in le=2; 3 in le=3; nothing beyond.
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2u * kPerWorker);
  EXPECT_EQ(snap.buckets[1], 1u * kPerWorker);
  EXPECT_EQ(snap.buckets[2], 1u * kPerWorker);
  EXPECT_EQ(snap.buckets[3], 0u);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
  // Sum of integer-valued observations is exact in double arithmetic.
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(kPerWorker) * (0 + 1 + 2 + 3));
}

TEST(ObsConcurrency, RegistrationRacesResolveToOneMetric) {
  Registry reg;
  constexpr int kWorkers = 4;
  common::ThreadPool pool(kWorkers);
  std::vector<std::future<Counter*>> futures;
  for (int w = 0; w < kWorkers; ++w)
    futures.push_back(
        pool.submit([&reg] { return &reg.counter("same.name"); }));
  Counter* first = futures[0].get();
  for (std::size_t i = 1; i < futures.size(); ++i)
    EXPECT_EQ(futures[i].get(), first);
}

}  // namespace
}  // namespace sunchase::obs
