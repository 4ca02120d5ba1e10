#include "sunchase/serve/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sunchase/common/error.h"
#include "sunchase/core/world_store.h"
#include "sunchase/obs/profiler.h"
#include "sunchase/obs/query_log.h"
#include "sunchase/obs/trace.h"
#include "sunchase/roadnet/citygen.h"
#include "sunchase/serve/json.h"
#include "sunchase/serve/query_ledger.h"
#include "../core/core_fixture.h"

namespace sunchase::serve {
namespace {

HttpRequest make_request(std::string method, std::string target,
                         std::string body = {}) {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  return request;
}

/// A socketless service over a fresh 10x10 grid world — the
/// listener/engine split under test: every endpoint exercised without
/// a single byte on a wire.
class ServeServiceTest : public ::testing::Test {
 protected:
  ServeServiceTest()
      : city_(roadnet::GridCityOptions{}),
        store_(test::RoutingEnv::make_init(city_.graph())),
        service_(store_) {}

  JsonValue call(const HttpRequest& request, int expected_status) {
    const HttpResponse response = service_.handle(request);
    EXPECT_EQ(response.status, expected_status) << response.body;
    return JsonValue::parse(response.body);
  }

  static std::string plan_body(roadnet::NodeId origin,
                               roadnet::NodeId destination) {
    return "{\"origin\":" + std::to_string(origin) +
           ",\"destination\":" + std::to_string(destination) +
           ",\"departure\":\"08:30\"}";
  }

  roadnet::GridCity city_;
  core::WorldStore store_;
  RouteService service_;
};

TEST_F(ServeServiceTest, HealthzReportsWorldVersionAndDrainState) {
  JsonValue body = call(make_request("GET", "/healthz"), 200);
  EXPECT_EQ(body.string_or("status", ""), "ok");
  EXPECT_DOUBLE_EQ(body.number_or("world_version", 0), 1.0);
  EXPECT_DOUBLE_EQ(body.number_or("queries_served", -1), 0.0);
  // One name per fact: no queries_recorded alias.
  EXPECT_EQ(body.find("queries_recorded"), nullptr);

  service_.set_draining(true);
  body = call(make_request("GET", "/healthz?probe=1"), 200);
  EXPECT_EQ(body.string_or("status", ""), "draining");
  service_.set_draining(false);
}

TEST_F(ServeServiceTest, HealthzCarriesUptimeQueriesServedAndDrainingFlag) {
  JsonValue body = call(make_request("GET", "/healthz"), 200);
  const JsonValue* draining = body.find("draining");
  ASSERT_NE(draining, nullptr);
  EXPECT_FALSE(draining->as_bool());
  EXPECT_GE(body.number_or("uptime_seconds", -1.0), 0.0);
  EXPECT_DOUBLE_EQ(body.number_or("queries_served", -1.0), 0.0);

  // Serving a plan bumps queries_served; draining flips the flag while
  // the status string degrades in step.
  call(make_request("POST", "/plan",
                    plan_body(city_.node_at(0, 0), city_.node_at(5, 5))),
       200);
  body = call(make_request("GET", "/healthz"), 200);
  EXPECT_DOUBLE_EQ(body.number_or("queries_served", -1.0), 1.0);

  service_.set_draining(true);
  body = call(make_request("GET", "/healthz"), 200);
  ASSERT_NE(body.find("draining"), nullptr);
  EXPECT_TRUE(body.find("draining")->as_bool());
  service_.set_draining(false);
}

TEST_F(ServeServiceTest, PlanReturnsCandidatesAndRecordsLedgerEntry) {
  const JsonValue body =
      call(make_request("POST", "/plan", plan_body(0, 87)), 200);
  EXPECT_DOUBLE_EQ(body.number_or("query_id", 0), 1.0);
  EXPECT_DOUBLE_EQ(body.number_or("world_version", 0), 1.0);
  EXPECT_EQ(body.string_or("pricing", ""), "slot");
  const JsonValue* candidates = body.find("candidates");
  ASSERT_NE(candidates, nullptr);
  ASSERT_FALSE(candidates->as_array().empty());
  const JsonValue& shortest = candidates->as_array()[0];
  EXPECT_TRUE(shortest.find("shortest_time")->as_bool());
  EXPECT_GT(shortest.number_or("travel_time_s", 0), 0.0);
  EXPECT_GT(body.find("stats")->number_or("labels_created", 0), 0.0);

  EXPECT_EQ(service_.ledger().recorded(), 1u);
  EXPECT_TRUE(service_.ledger().find(1).has_value());
}

TEST_F(ServeServiceTest, PlanHonorsPerRequestOverrides) {
  const std::string body =
      "{\"origin\":0,\"destination\":55,\"departure\":\"09:00\","
      "\"pricing\":\"exact\",\"vehicle\":1,\"time_dependent\":false}";
  const JsonValue response = call(make_request("POST", "/plan", body), 200);
  EXPECT_EQ(response.string_or("pricing", ""), "exact");
}

TEST_F(ServeServiceTest, PlanRejectsMalformedBodies) {
  const std::pair<const char*, int> cases[] = {
      {"", 400},                                             // not JSON
      {"{\"origin\":0,\"departure\":\"08:00\"}", 400},       // no destination
      {"{\"origin\":0,\"destination\":3}", 400},             // no departure
      {"{\"origin\":-1,\"destination\":3,\"departure\":\"08:00\"}", 400},
      {"{\"origin\":0.5,\"destination\":3,\"departure\":\"08:00\"}", 400},
      {"{\"origin\":0,\"destination\":3,\"departure\":\"25:99\"}", 400},
      {"{\"origin\":0,\"destination\":3,\"departure\":\"08:00\","
       "\"pricing\":\"psychic\"}",
       400},
      {"{\"origin\":0,\"destination\":3,\"departure\":\"08:00\","
       "\"time_budget\":-1}",
       400},
      {"{\"origin\":0,\"destination\":99999,\"departure\":\"08:00\"}", 400},
  };
  for (const auto& [body, status] : cases) {
    const HttpResponse response =
        service_.handle(make_request("POST", "/plan", body));
    EXPECT_EQ(response.status, status) << body;
    EXPECT_NE(JsonValue::parse(response.body).find("error"), nullptr) << body;
  }
}

TEST_F(ServeServiceTest, PlanRejectsNonFiniteAndFractionalTimeBudgets) {
  // Regression for the NaN/inf bypass: "1e999" parses to +inf and used
  // to sail past the `< 0` check, then poison the search's time bound
  // (NaN comparisons are all false, silently disabling the prune).
  // Every such body must die at the parser with an error naming the
  // `time_budget` request field.
  const char* bad[] = {
      "{\"origin\":0,\"destination\":3,\"departure\":\"08:00\","
      "\"time_budget\":1e999}",
      "{\"origin\":0,\"destination\":3,\"departure\":\"08:00\","
      "\"time_budget\":-1e999}",
      "{\"origin\":0,\"destination\":3,\"departure\":\"08:00\","
      "\"time_budget\":0.5}",
  };
  for (const char* body : bad) {
    const HttpResponse response =
        service_.handle(make_request("POST", "/plan", body));
    EXPECT_EQ(response.status, 400) << body;
    const JsonValue parsed = JsonValue::parse(response.body);
    const JsonValue* error = parsed.find("error");
    ASSERT_NE(error, nullptr) << body;
    EXPECT_NE(error->as_string().find("time_budget"), std::string::npos)
        << error->as_string();
  }
  // A bare NaN literal is not JSON at all: rejected by the parser.
  const HttpResponse nan_body = service_.handle(make_request(
      "POST", "/plan",
      "{\"origin\":0,\"destination\":3,\"departure\":\"08:00\","
      "\"time_budget\":NaN}"));
  EXPECT_EQ(nan_body.status, 400) << nan_body.body;
}

TEST_F(ServeServiceTest, PlanAcceptsPruningAndEpsilonOverrides) {
  const std::string body =
      "{\"origin\":0,\"destination\":87,\"departure\":\"08:30\","
      "\"time_budget\":1.5,\"epsilon\":0.05,"
      "\"prune_with_lower_bounds\":false}";
  const JsonValue response = call(make_request("POST", "/plan", body), 200);
  const JsonValue* stats = response.find("stats");
  ASSERT_NE(stats, nullptr);
  // Pruning off: no lower-bound build; the relaxed merge may or may
  // not fire but its counter must be reported.
  EXPECT_DOUBLE_EQ(stats->number_or("lower_bound_seconds", -1.0), 0.0);
  EXPECT_GE(stats->number_or("labels_merged_epsilon", -1.0), 0.0);
  EXPECT_GE(stats->number_or("labels_pruned_bound", -1.0), 0.0);
}

TEST_F(ServeServiceTest, PlanRejectsBadEpsilon) {
  const char* bad[] = {
      "{\"origin\":0,\"destination\":3,\"departure\":\"08:00\","
      "\"epsilon\":-1}",
      "{\"origin\":0,\"destination\":3,\"departure\":\"08:00\","
      "\"epsilon\":1e999}",
  };
  for (const char* body : bad) {
    const HttpResponse response =
        service_.handle(make_request("POST", "/plan", body));
    EXPECT_EQ(response.status, 400) << body;
    const JsonValue parsed = JsonValue::parse(response.body);
    const JsonValue* error = parsed.find("error");
    ASSERT_NE(error, nullptr) << body;
    EXPECT_NE(error->as_string().find("epsilon"), std::string::npos)
        << error->as_string();
  }
}

TEST_F(ServeServiceTest, UnplannableQueryIs422NotA400) {
  // A one-label budget exhausts mid-search: well-formed request, no
  // routable answer — the 422 contract.
  RouteServiceOptions options;
  options.mlc.max_labels = 1;
  RouteService strangled(store_, options);
  const HttpResponse response =
      strangled.handle(make_request("POST", "/plan", plan_body(0, 87)));
  EXPECT_EQ(response.status, 422) << response.body;
}

TEST_F(ServeServiceTest, MethodAndPathMismatchesAnswer405And404) {
  EXPECT_EQ(service_.handle(make_request("GET", "/plan")).status, 405);
  EXPECT_EQ(service_.handle(make_request("POST", "/healthz")).status, 405);
  EXPECT_EQ(service_.handle(make_request("POST", "/metrics")).status, 405);
  EXPECT_EQ(service_.handle(make_request("POST", "/explain/1")).status, 405);
  EXPECT_EQ(service_.handle(make_request("GET", "/nope")).status, 404);
  EXPECT_EQ(service_.handle(make_request("GET", "/")).status, 404);
}

TEST_F(ServeServiceTest, BatchPlansEveryQueryAndAssignsDenseIds) {
  const std::string body =
      "{\"queries\":["
      "{\"origin\":0,\"destination\":42,\"departure\":\"08:00\"},"
      "{\"origin\":7,\"destination\":93,\"departure\":\"12:15\"},"
      "{\"origin\":55,\"destination\":3,\"departure\":\"16:45\"}]}";
  const JsonValue response = call(make_request("POST", "/batch", body), 200);
  const JsonValue* stats = response.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_DOUBLE_EQ(stats->number_or("queries", 0), 3.0);
  EXPECT_DOUBLE_EQ(stats->number_or("ok", 0), 3.0);
  EXPECT_DOUBLE_EQ(stats->number_or("failed", -1), 0.0);

  const JsonValue* rows = response.find("results");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->as_array().size(), 3u);
  for (const JsonValue& row : rows->as_array()) {
    EXPECT_EQ(row.string_or("status", ""), "ok");
    const double id = row.number_or("query_id", 0);
    EXPECT_GE(id, 1.0);
    EXPECT_LE(id, 3.0);
    EXPECT_TRUE(service_.ledger()
                    .find(static_cast<std::uint64_t>(id))
                    .has_value());
  }
  EXPECT_EQ(service_.ledger().recorded(), 3u);
}

TEST_F(ServeServiceTest, BatchOverTheQueryCapIs413) {
  RouteServiceOptions options;
  options.max_batch_queries = 2;
  RouteService small(store_, options);
  const std::string body =
      "{\"queries\":["
      "{\"origin\":0,\"destination\":1,\"departure\":\"08:00\"},"
      "{\"origin\":0,\"destination\":2,\"departure\":\"08:00\"},"
      "{\"origin\":0,\"destination\":3,\"departure\":\"08:00\"}]}";
  EXPECT_EQ(small.handle(make_request("POST", "/batch", body)).status, 413);
  EXPECT_EQ(small.handle(make_request("POST", "/batch",
                                      "{\"queries\":[]}")).status,
            400);
}

TEST_F(ServeServiceTest, ExplainReplaysConservatively) {
  call(make_request("POST", "/plan", plan_body(0, 87)), 200);
  const JsonValue explain = call(make_request("GET", "/explain/1"), 200);
  EXPECT_TRUE(explain.find("conserves")->as_bool());
  EXPECT_NEAR(explain.number_or("max_deviation", 1.0), 0.0, 1e-9);
  EXPECT_NE(explain.find("ledger"), nullptr);
}

TEST_F(ServeServiceTest, ExplainStaysPinnedAcrossPublishes) {
  // Answer a query on world v1, then publish shading that contradicts
  // v1 everywhere. The explain replay must still balance against the
  // v1-pinned criteria — a replay on the new world would deviate.
  call(make_request("POST", "/plan", plan_body(0, 87)), 200);

  std::string observations = "{\"observations\":[";
  for (roadnet::EdgeId e = 0; e < city_.graph().edge_count(); ++e) {
    for (int slot = 32; slot <= 74; ++slot) {
      if (e != 0 || slot != 32) observations += ',';
      observations += "{\"edge\":" + std::to_string(e) +
                      ",\"slot\":" + std::to_string(slot) +
                      ",\"shaded_fraction\":0.95}";
    }
  }
  observations += "]}";
  const JsonValue publish =
      call(make_request("POST", "/world/publish", observations), 200);
  EXPECT_DOUBLE_EQ(publish.number_or("world_version", 0), 2.0);
  EXPECT_DOUBLE_EQ(publish.number_or("coverage", 0), 1.0);

  const JsonValue explain = call(make_request("GET", "/explain/1"), 200);
  EXPECT_DOUBLE_EQ(explain.number_or("world_version", 0), 1.0);
  EXPECT_TRUE(explain.find("conserves")->as_bool());

  // A fresh plan sees the new snapshot.
  const JsonValue fresh =
      call(make_request("POST", "/plan", plan_body(0, 87)), 200);
  EXPECT_DOUBLE_EQ(fresh.number_or("world_version", 0), 2.0);
}

TEST_F(ServeServiceTest, ExplainAnswers404ForUnknownAndEvictedIds) {
  EXPECT_EQ(service_.handle(make_request("GET", "/explain/7")).status, 404);
  EXPECT_EQ(service_.handle(make_request("GET", "/explain/0")).status, 404);
  EXPECT_EQ(service_.handle(make_request("GET", "/explain/abc")).status, 400);
  EXPECT_EQ(service_.handle(
                    make_request("GET",
                                 "/explain/99999999999999999999999"))
                .status,
            400);

  RouteServiceOptions options;
  options.ledger_capacity = 1;
  RouteService tiny(store_, options);
  EXPECT_EQ(tiny.handle(make_request("POST", "/plan", plan_body(0, 9)))
                .status,
            200);
  EXPECT_EQ(tiny.handle(make_request("POST", "/plan", plan_body(0, 12)))
                .status,
            200);
  EXPECT_EQ(tiny.handle(make_request("GET", "/explain/1")).status, 404);
  EXPECT_EQ(tiny.handle(make_request("GET", "/explain/2")).status, 200);
}

TEST_F(ServeServiceTest, EmptyBodyPublishRollsTheVersion) {
  const JsonValue response =
      call(make_request("POST", "/world/publish", "  \r\n"), 200);
  EXPECT_DOUBLE_EQ(response.number_or("world_version", 0), 2.0);
  EXPECT_DOUBLE_EQ(response.number_or("observations", -1), 0.0);
  EXPECT_EQ(store_.current()->version(), 2u);
}

TEST_F(ServeServiceTest, PublishRejectsMalformedObservations) {
  EXPECT_EQ(service_.handle(make_request("POST", "/world/publish",
                                         "{\"observations\":[{}]}"))
                .status,
            400);
  EXPECT_EQ(service_.handle(
                    make_request("POST", "/world/publish", "{\"x\":1}"))
                .status,
            400);
  EXPECT_EQ(store_.current()->version(), 1u);
}

TEST_F(ServeServiceTest, MetricsEndpointEmitsPrometheusText) {
  call(make_request("POST", "/plan", plan_body(0, 31)), 200);
  const HttpResponse response = service_.handle(make_request("GET", "/metrics"));
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("serve_plans"), std::string::npos);
  ASSERT_FALSE(response.headers.empty());
  EXPECT_NE(response.headers[0].second.find("text/plain"),
            std::string::npos);
}

TEST_F(ServeServiceTest, ResponsesEchoTheRequestTraceId) {
  const std::string trace_id = "0123456789abcdeffedcba9876543210";
  HttpRequest request =
      make_request("POST", "/plan", plan_body(0, 87));
  request.headers.emplace_back("traceparent",
                               "00-" + trace_id + "-00000000000000a1-01");
  const HttpResponse response = service_.handle(request);
  EXPECT_EQ(response.status, 200);

  const std::string* echoed = response.header("x-sunchase-request-id");
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(*echoed, trace_id);
  // The response traceparent keeps the same trace id. With span
  // recording off (this test) the inbound span id passes through
  // unchanged — W3C pass-through; with the tracer on it would be the
  // serve.request span id instead.
  const std::string* parent = response.header("traceparent");
  ASSERT_NE(parent, nullptr);
  ASSERT_EQ(parent->size(), 55u);
  EXPECT_EQ(parent->substr(0, 36), "00-" + trace_id + "-");
  EXPECT_EQ(parent->substr(36, 16), "00000000000000a1");
}

TEST_F(ServeServiceTest, MalformedTraceparentFallsBackToAFreshId) {
  for (const char* bad : {"", "garbage", "00-zz-aa-01",
                          "00-00000000000000000000000000000000-"
                          "00000000000000a1-01"}) {
    HttpRequest request = make_request("GET", "/healthz");
    if (*bad != '\0') request.headers.emplace_back("traceparent", bad);
    const HttpResponse response = service_.handle(request);
    const std::string* echoed = response.header("x-sunchase-request-id");
    ASSERT_NE(echoed, nullptr) << bad;
    EXPECT_EQ(echoed->size(), 32u) << bad;
    EXPECT_NE(*echoed, std::string(32, '0')) << bad;
  }
  // Errors echo the id too — that is what makes 4xx logs greppable.
  HttpRequest request = make_request("POST", "/plan", "not json");
  request.headers.emplace_back(
      "traceparent", "00-0123456789abcdeffedcba9876543210-"
                     "00000000000000a1-01");
  const HttpResponse response = service_.handle(request);
  EXPECT_EQ(response.status, 400);
  const std::string* echoed = response.header("x-sunchase-request-id");
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(*echoed, "0123456789abcdeffedcba9876543210");
}

TEST_F(ServeServiceTest, QueryLogRecordsCarryTheRequestTraceId) {
  std::ostringstream sink;
  obs::QueryLog log(sink);
  RouteServiceOptions options;
  options.query_log = &log;
  RouteService logged(store_, options);

  const std::string trace_id = "00000000000010ad0000000000000001";
  HttpRequest request = make_request("POST", "/plan", plan_body(0, 42));
  request.headers.emplace_back("traceparent",
                               "00-" + trace_id + "-00000000000000a1-01");
  EXPECT_EQ(logged.handle(request).status, 200);

  EXPECT_NE(sink.str().find("\"trace_id\":\"" + trace_id + "\""),
            std::string::npos)
      << sink.str();

  // /debug/queries serves the same record from the in-memory tail.
  const HttpResponse debug =
      logged.handle(make_request("GET", "/debug/queries?n=8"));
  ASSERT_EQ(debug.status, 200) << debug.body;
  const JsonValue body = JsonValue::parse(debug.body);
  EXPECT_TRUE(body.find("enabled")->as_bool());
  EXPECT_DOUBLE_EQ(body.number_or("count", 0), 1.0);
  const JsonValue& row = body.find("queries")->as_array().front();
  EXPECT_EQ(row.string_or("trace_id", ""), trace_id);
  EXPECT_EQ(row.string_or("mode", ""), "plan");
}

TEST_F(ServeServiceTest, DebugQueriesWithoutALogSaysDisabled) {
  const JsonValue body = call(make_request("GET", "/debug/queries"), 200);
  EXPECT_FALSE(body.find("enabled")->as_bool());
  EXPECT_DOUBLE_EQ(body.number_or("count", -1), 0.0);
  EXPECT_TRUE(body.find("queries")->as_array().empty());
}

TEST_F(ServeServiceTest, DebugWorldsReportsLineageAcrossPublishes) {
  JsonValue body = call(make_request("GET", "/debug/worlds"), 200);
  EXPECT_DOUBLE_EQ(body.number_or("current_version", 0), 1.0);
  ASSERT_EQ(body.find("lineage")->as_array().size(), 1u);
  EXPECT_TRUE(body.find("lineage")->as_array()[0].find("current")
                  ->as_bool());

  // Answer a query (pins v1 in the ledger), then publish v2: lineage
  // shows both, v2 current, v1 alive because the ledger still pins it.
  call(make_request("POST", "/plan", plan_body(0, 87)), 200);
  call(make_request("POST", "/world/publish", ""), 200);

  body = call(make_request("GET", "/debug/worlds"), 200);
  EXPECT_DOUBLE_EQ(body.number_or("current_version", 0), 2.0);
  const auto& rows = body.find("lineage")->as_array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].number_or("version", 0), 1.0);
  EXPECT_FALSE(rows[0].find("current")->as_bool());
  EXPECT_TRUE(rows[0].find("alive")->as_bool());
  EXPECT_GE(rows[0].number_or("pins", 0), 1.0);
  EXPECT_DOUBLE_EQ(rows[1].number_or("version", 0), 2.0);
  EXPECT_TRUE(rows[1].find("current")->as_bool());
  EXPECT_NE(body.find("slot_cache"), nullptr);
}

TEST_F(ServeServiceTest, DebugEndpointsRejectWrongMethodsAndBadParams) {
  EXPECT_EQ(service_.handle(make_request("POST", "/debug/trace")).status,
            405);
  EXPECT_EQ(service_.handle(make_request("POST", "/debug/queries")).status,
            405);
  EXPECT_EQ(service_.handle(make_request("POST", "/debug/worlds")).status,
            405);
  EXPECT_EQ(service_.handle(make_request("GET", "/debug/nope")).status, 404);
  EXPECT_EQ(
      service_.handle(make_request("GET", "/debug/trace?since=abc")).status,
      400);
  EXPECT_EQ(
      service_.handle(make_request("GET", "/debug/queries?n=-3")).status,
      400);
}

TEST_F(ServeServiceTest, DebugProfileServesJsonAndCollapsedAndResets) {
  obs::Profiler::global().reset();
  // Deterministic folds: sample a synthetic span directly, no sampler
  // thread involved.
  {
    const obs::SpanTimer span("svc.test");
    obs::Profiler::global().sample_once();
  }

  const JsonValue body =
      call(make_request("GET", "/debug/profile?format=json"), 200);
  EXPECT_FALSE(body.find("running") == nullptr);
  EXPECT_GE(body.number_or("samples_total", -1.0), 1.0);
  EXPECT_GE(body.number_or("interval_ms", 0.0), 1.0);
  ASSERT_NE(body.find("stacks"), nullptr);
  EXPECT_TRUE(body.find("stacks")->is_array());

  // Default format is collapsed-stack text.
  const HttpResponse collapsed =
      service_.handle(make_request("GET", "/debug/profile"));
  EXPECT_EQ(collapsed.status, 200);
  EXPECT_NE(collapsed.body.find("svc.test 1"), std::string::npos)
      << collapsed.body;

  // ?reset=1 answers with the folds it drops, then starts fresh.
  const HttpResponse drained =
      service_.handle(make_request("GET", "/debug/profile?reset=1"));
  EXPECT_NE(drained.body.find("svc.test"), std::string::npos);
  const HttpResponse empty =
      service_.handle(make_request("GET", "/debug/profile"));
  EXPECT_EQ(empty.body.find("svc.test"), std::string::npos);

  // Guard rails: wrong method 405, unknown format 400.
  EXPECT_EQ(service_.handle(make_request("POST", "/debug/profile")).status,
            405);
  EXPECT_EQ(
      service_.handle(make_request("GET", "/debug/profile?format=perf"))
          .status,
      400);
  obs::Profiler::global().reset();
}

TEST_F(ServeServiceTest, DebugProfileCapturesLiveBatchStacksUnderSampler) {
  // The acceptance path: a live /batch under a running sampler must
  // eventually fold serve.request;batch.query;... — the worker-pool
  // spans re-parented under the ingress span via SpanStackScope.
  obs::Profiler::global().reset();
  obs::Profiler::global().start(obs::Profiler::Options{1});

  std::string batch = "{\"queries\":[";
  for (int i = 0; i < 16; ++i) {
    if (i != 0) batch += ',';
    batch += plan_body(city_.node_at(0, i % 10),
                       city_.node_at(9, (i * 3) % 10));
  }
  batch += "]}";

  bool found = false;
  for (int attempt = 0; attempt < 50 && !found; ++attempt) {
    call(make_request("POST", "/batch", batch), 200);
    for (const obs::ProfileEntry& entry :
         obs::Profiler::global().entries())
      if (entry.stack.rfind("serve.request;batch.query", 0) == 0)
        found = true;
  }
  obs::Profiler::global().stop();
  obs::Profiler::global().reset();
  EXPECT_TRUE(found)
      << "no serve.request;batch.query fold after 50 batches";
}

TEST_F(ServeServiceTest, PlanResponsesAndLedgerCarryCpuAccounting) {
  const JsonValue body = call(
      make_request("POST", "/plan",
                   plan_body(city_.node_at(1, 1), city_.node_at(8, 8))),
      200);
  const JsonValue* stats = body.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->number_or("cpu_ms", 0.0), 0.0);

  const auto id =
      static_cast<std::uint64_t>(body.number_or("query_id", 0.0));
  const auto entry = service_.ledger().find(id);
  ASSERT_TRUE(entry.has_value());
  EXPECT_GT(entry->cpu_ms, 0.0);
  EXPECT_GT(entry->labels_created, 0u);

  // /explain surfaces the same accounting next to the energy ledger.
  const JsonValue explain =
      call(make_request("GET", "/explain/" + std::to_string(id)), 200);
  const JsonValue* accounting = explain.find("cost_accounting");
  ASSERT_NE(accounting, nullptr);
  EXPECT_GT(accounting->number_or("cpu_ms", 0.0), 0.0);
  EXPECT_GT(accounting->number_or("labels_created", 0.0), 0.0);
}

TEST_F(ServeServiceTest, BatchResponsesAndLedgerCarryCpuSeconds) {
  const std::string batch =
      "{\"queries\":[" +
      plan_body(city_.node_at(0, 0), city_.node_at(5, 5)) + "," +
      plan_body(city_.node_at(2, 2), city_.node_at(9, 9)) + "]}";
  const JsonValue body = call(make_request("POST", "/batch", batch), 200);
  // Batch-level stats report the summed worker CPU of the request...
  const JsonValue* stats = body.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->number_or("cpu_seconds", 0.0), 0.0);
  // ...and each answered query's own share lands in its ledger entry.
  const JsonValue* results = body.find("results");
  ASSERT_NE(results, nullptr);
  for (const JsonValue& result : results->as_array()) {
    const auto id =
        static_cast<std::uint64_t>(result.number_or("query_id", 0.0));
    const auto entry = service_.ledger().find(id);
    ASSERT_TRUE(entry.has_value());
    EXPECT_GT(entry->cpu_ms, 0.0);
  }
}

/// Structural equality of two parsed JSON values, member order included.
bool same_json(const JsonValue& a, const JsonValue& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case JsonValue::Type::Null:
      return true;
    case JsonValue::Type::Bool:
      return a.as_bool() == b.as_bool();
    case JsonValue::Type::Number:
      return a.as_number() == b.as_number();
    case JsonValue::Type::String:
      return a.as_string() == b.as_string();
    case JsonValue::Type::Array:
      return std::equal(a.as_array().begin(), a.as_array().end(),
                        b.as_array().begin(), b.as_array().end(), same_json);
    case JsonValue::Type::Object:
      return std::equal(
          a.as_object().begin(), a.as_object().end(), b.as_object().begin(),
          b.as_object().end(),
          [](const JsonValue::Member& x, const JsonValue::Member& y) {
            return x.first == y.first && same_json(x.second, y.second);
          });
  }
  return false;
}

TEST_F(ServeServiceTest, PlanAndBatchLeaveTheSameExplainLedger) {
  const std::string trip = plan_body(city_.node_at(1, 1), city_.node_at(8, 8));
  const JsonValue plan = call(make_request("POST", "/plan", trip), 200);
  const JsonValue batch = call(
      make_request("POST", "/batch", "{\"queries\":[" + trip + "]}"), 200);
  const JsonValue& row = batch.find("results")->as_array().at(0);
  const auto plan_id =
      static_cast<std::uint64_t>(plan.number_or("query_id", 0));
  const auto batch_id =
      static_cast<std::uint64_t>(row.number_or("query_id", 0));
  ASSERT_NE(plan_id, batch_id);

  const JsonValue plan_explain = call(
      make_request("GET", "/explain/" + std::to_string(plan_id)), 200);
  const JsonValue batch_explain = call(
      make_request("GET", "/explain/" + std::to_string(batch_id)), 200);
  // Everything but the request's identity and what it cost.
  const auto answer = [](const JsonValue& explain) {
    JsonValue::Object members;
    for (const JsonValue::Member& member : explain.as_object())
      if (member.first != "query_id" && member.first != "trace_id" &&
          member.first != "cost_accounting")
        members.push_back(member);
    return members;
  };
  const JsonValue::Object from_plan = answer(plan_explain);
  const JsonValue::Object from_batch = answer(batch_explain);
  ASSERT_EQ(from_plan.size(), from_batch.size());
  ASSERT_NE(plan_explain.find("ledger"), nullptr);
  for (std::size_t i = 0; i < from_plan.size(); ++i) {
    EXPECT_EQ(from_plan[i].first, from_batch[i].first);
    EXPECT_TRUE(same_json(from_plan[i].second, from_batch[i].second))
        << from_plan[i].first;
  }
}

TEST_F(ServeServiceTest, MetricsSupportsJsonFormatAndRejectsUnknown) {
  call(make_request("POST", "/plan",
                    plan_body(city_.node_at(0, 0), city_.node_at(5, 5))),
       200);
  const HttpResponse json =
      service_.handle(make_request("GET", "/metrics?format=json"));
  EXPECT_EQ(json.status, 200);
  const JsonValue doc = JsonValue::parse(json.body);
  EXPECT_NE(doc.find("histograms"), nullptr);
  EXPECT_NE(json.body.find("\"p99\":"), std::string::npos);
  // Unknown format answers 400; the labeled window series are asserted
  // in test_server.cpp, where requests flow through HttpServer (the
  // layer that owns serve.latency_seconds{endpoint=...}).
  EXPECT_EQ(service_.handle(make_request("GET", "/metrics?format=xml"))
                .status,
            400);
}

TEST(ServeRouteLabel, MapsTargetsOntoABoundedSet) {
  EXPECT_STREQ(RouteService::route_label("/plan"), "/plan");
  EXPECT_STREQ(RouteService::route_label("/batch"), "/batch");
  EXPECT_STREQ(RouteService::route_label("/healthz?probe=1"), "/healthz");
  EXPECT_STREQ(RouteService::route_label("/explain/42"), "/explain");
  EXPECT_STREQ(RouteService::route_label("/debug/trace?since=9"), "/debug");
  EXPECT_STREQ(RouteService::route_label("/metrics"), "/metrics");
  EXPECT_STREQ(RouteService::route_label("/world/publish"),
               "/world/publish");
  EXPECT_STREQ(RouteService::route_label("/" + std::string(4096, 'x')),
               "other");
  EXPECT_STREQ(RouteService::route_label(""), "other");
}

/// The tentpole acceptance path: a traced /plan under concurrent
/// 8-worker /batch load must yield (a) the request-id echo, (b) a
/// QueryLog record with the same trace_id and (c) a /debug/trace
/// export where the query's mlc.search span parents — transitively —
/// back to the ingress serve.request span.
TEST_F(ServeServiceTest, TraceSpansParentToTheIngressRequestUnderBatchLoad) {
  struct TracerGuard {
    TracerGuard() {
      obs::Tracer::global().clear();
      obs::Tracer::global().set_enabled(true);
    }
    ~TracerGuard() {
      obs::Tracer::global().set_enabled(false);
      obs::Tracer::global().clear();
    }
  } tracer_guard;

  std::ostringstream sink;
  obs::QueryLog log(sink);
  RouteServiceOptions options;
  options.batch_workers = 8;
  options.query_log = &log;
  RouteService service(store_, options);

  std::string batch = "{\"queries\":[";
  for (int i = 0; i < 6; ++i) {
    if (i != 0) batch += ',';
    batch += "{\"origin\":" + std::to_string(i) +
             ",\"destination\":" + std::to_string(90 - i) +
             ",\"departure\":\"08:00\"}";
  }
  batch += "]}";

  std::vector<std::thread> load;
  for (int t = 0; t < 2; ++t)
    load.emplace_back([&service, &batch] {
      const HttpResponse response =
          service.handle(make_request("POST", "/batch", batch));
      EXPECT_EQ(response.status, 200) << response.body;
    });

  const std::string trace_id = "0123456789abcdeffedcba9876543210";
  HttpRequest plan = make_request("POST", "/plan", plan_body(0, 87));
  plan.headers.emplace_back("traceparent",
                            "00-" + trace_id + "-00000000000000a1-01");
  const HttpResponse response = service.handle(plan);
  ASSERT_EQ(response.status, 200) << response.body;

  for (std::thread& thread : load) thread.join();

  // (a) the echo.
  const std::string* echoed = response.header("x-sunchase-request-id");
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(*echoed, trace_id);

  // (b) the query log record.
  EXPECT_NE(sink.str().find("\"trace_id\":\"" + trace_id + "\""),
            std::string::npos);

  // (c) the parented span export.
  const HttpResponse debug =
      service.handle(make_request("GET", "/debug/trace"));
  ASSERT_EQ(debug.status, 200);
  const JsonValue doc = JsonValue::parse(debug.body);
  EXPECT_GT(doc.number_or("now_us", 0), 0.0);

  struct Span {
    std::string name;
    std::string parent;
  };
  std::map<std::string, Span> by_id;  // span_id -> span
  std::string mlc_span;
  for (const JsonValue& event : doc.find("traceEvents")->as_array()) {
    const JsonValue* args = event.find("args");
    if (args == nullptr) continue;
    const std::string id = args->string_or("span_id", "");
    by_id[id] = Span{event.string_or("name", ""),
                     args->string_or("parent_id", "")};
    if (event.string_or("name", "") == "mlc.search" &&
        args->string_or("trace_id", "") == trace_id)
      mlc_span = id;
  }
  ASSERT_FALSE(mlc_span.empty())
      << "no mlc.search span carries the request trace id: " << debug.body;

  // Walk parent pointers until the ingress span; every hop must exist.
  std::string at = mlc_span;
  std::vector<std::string> chain;
  while (true) {
    const auto it = by_id.find(at);
    ASSERT_NE(it, by_id.end()) << "broken parent chain at " << at;
    chain.push_back(it->second.name);
    if (it->second.name == "serve.request") {
      // The ingress span parents to the caller's traceparent span id.
      EXPECT_EQ(it->second.parent, "00000000000000a1");
      break;
    }
    ASSERT_LE(chain.size(), 16u) << "parent cycle";
    at = it->second.parent;
  }
  EXPECT_GE(chain.size(), 2u);  // at least mlc.search -> serve.request
}

TEST(ServeLedger, RecordsFindsAndEvictsByRingPosition) {
  QueryLedger ledger(2);
  LedgerEntry entry;
  entry.origin = 1;
  EXPECT_EQ(ledger.record(entry), 1u);
  entry.origin = 2;
  EXPECT_EQ(ledger.record(entry), 2u);
  ASSERT_TRUE(ledger.find(1).has_value());
  EXPECT_EQ(ledger.find(1)->origin, 1u);

  entry.origin = 3;
  EXPECT_EQ(ledger.record(entry), 3u);
  EXPECT_FALSE(ledger.find(1).has_value());  // evicted by id 3
  ASSERT_TRUE(ledger.find(2).has_value());
  EXPECT_EQ(ledger.find(3)->origin, 3u);
  EXPECT_FALSE(ledger.find(0).has_value());
  EXPECT_FALSE(ledger.find(4).has_value());  // not recorded yet
  EXPECT_EQ(ledger.recorded(), 3u);
}

TEST(ServeLedger, ZeroCapacityIsRejected) {
  EXPECT_THROW(QueryLedger ledger(0), InvalidArgument);
}

}  // namespace
}  // namespace sunchase::serve
