#include "sunchase/serve/service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sunchase/common/error.h"
#include "sunchase/core/explain.h"
#include "sunchase/core/slot_cost_cache.h"
#include "sunchase/crowd/crowd_map.h"
#include "sunchase/crowd/world_fold.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/obs/profiler.h"
#include "sunchase/obs/query_log.h"
#include "sunchase/obs/trace.h"
#include "sunchase/serve/json.h"

namespace sunchase::serve {

namespace {

/// Shortest round-trippable rendering of a double for response bodies.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// The JSON number `value` as a T in [lo, hi]; InvalidArgument naming
/// `field` unless it is integral and in range. Casting a double outside
/// T's range is undefined behaviour, so nothing else may reach the cast.
template <typename T>
T integral(const JsonValue& value, const char* field,
           T lo = std::numeric_limits<T>::min(),
           T hi = std::numeric_limits<T>::max()) {
  const double raw = value.as_number();
  // hi + 1 is the first value out of range; for 64-bit T the conversion
  // rounds hi up to 2^64, which is that same bound.
  if (!(raw >= static_cast<double>(lo)) ||
      !(raw < static_cast<double>(hi) + 1.0) || raw != std::floor(raw))
    throw InvalidArgument(std::string("field \"") + field +
                          "\" must be an integer in [" + std::to_string(lo) +
                          ", " + std::to_string(hi) + "]");
  return static_cast<T>(raw);
}

/// Required node-id member.
roadnet::NodeId node_from(const JsonValue& body, const char* key) {
  const JsonValue* member = body.find(key);
  if (member == nullptr)
    throw InvalidArgument(std::string("missing required field \"") + key +
                          '"');
  return integral<roadnet::NodeId>(*member, key, 0, roadnet::kInvalidNode - 1);
}

TimeOfDay departure_from(const JsonValue& body) {
  const JsonValue* member = body.find("departure");
  if (member == nullptr)
    throw InvalidArgument("missing required field \"departure\"");
  return TimeOfDay::parse(member->as_string());
}

/// One trip of a /plan body or of a /batch "queries" element.
core::BatchQuery query_from(const JsonValue& value) {
  core::BatchQuery query;
  query.origin = node_from(value, "origin");
  query.destination = node_from(value, "destination");
  query.departure = departure_from(value);
  return query;
}

/// One candidate route as a response object (shared by /plan, /batch).
std::string candidate_json(const core::CandidateRoute& c) {
  std::string out = "{";
  out += "\"shortest_time\":";
  out += c.is_shortest_time ? "true" : "false";
  out += ",\"battery_feasible\":";
  out += c.battery_feasible ? "true" : "false";
  out += ",\"edges\":" + std::to_string(c.route.path.edges.size());
  out += ",\"length_m\":" + num(c.metrics.total_length.value());
  out += ",\"travel_time_s\":" + num(c.metrics.travel_time.value());
  out += ",\"solar_time_s\":" + num(c.metrics.solar_time.value());
  out += ",\"shaded_time_s\":" + num(c.metrics.shaded_time.value());
  out += ",\"energy_in_wh\":" + num(c.metrics.energy_in.value());
  out += ",\"energy_out_wh\":" + num(c.metrics.energy_out.value());
  out += ",\"net_drain_wh\":" + num(c.net_drain().value());
  out += ",\"extra_energy_wh\":" + num(c.extra_energy.value());
  out += ",\"extra_time_s\":" + num(c.extra_time.value());
  out += "}";
  return out;
}

/// The value of `?name=` in a request target, or nullopt when absent.
/// The /debug endpoints take only unescaped numeric parameters, so no
/// percent-decoding is needed.
std::optional<std::string> query_param(std::string_view target,
                                       std::string_view name) {
  const std::size_t question = target.find('?');
  if (question == std::string_view::npos) return std::nullopt;
  std::string_view rest = target.substr(question + 1);
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    if (pair.substr(0, eq) == name) return std::string(pair.substr(eq + 1));
  }
  return std::nullopt;
}

/// A non-empty run of decimal digits as a uint64; InvalidArgument
/// naming `what` on anything else, or when the value overflows.
std::uint64_t parse_decimal(std::string_view text, std::string_view what) {
  if (text.empty())
    throw InvalidArgument(std::string(what) + " must be a non-negative "
                                              "integer");
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9')
      throw InvalidArgument(std::string(what) + " must be a non-negative "
                                                "integer");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      throw InvalidArgument(std::string(what) + " out of range");
    value = value * 10 + digit;
  }
  return value;
}

/// A non-negative integer query parameter; `fallback` when absent.
std::uint64_t uint_param(std::string_view target, std::string_view name,
                         std::uint64_t fallback) {
  const std::optional<std::string> raw = query_param(target, name);
  return raw.has_value() ? parse_decimal(*raw, name) : fallback;
}

}  // namespace

RouteService::RouteService(core::WorldStore& store,
                           RouteServiceOptions options)
    : store_(store),
      options_(std::move(options)),
      ledger_(options_.ledger_capacity) {
  // Fail configuration errors (unknown vehicle index, bad MLC options)
  // at construction instead of on the first request.
  core::PlannerOptions probe;
  probe.mlc = options_.mlc;
  probe.selection = options_.selection;
  (void)core::SunChasePlanner(store_.current(), probe);
}

HttpResponse RouteService::json_response(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.set_header("content-type", "application/json");
  response.body = std::move(body);
  return response;
}

HttpResponse RouteService::error_response(int status,
                                          std::string_view message) {
  return json_response(status, "{\"error\":" + json_quote(message) + "}");
}

void RouteService::set_draining(bool draining) noexcept {
  draining_.store(draining, std::memory_order_relaxed);
  obs::Registry::global().gauge("serve.draining").set(draining ? 1.0 : 0.0);
}

HttpResponse RouteService::handle(const HttpRequest& request) {
  // Adopt the caller's trace context or mint one, and keep it installed
  // for the whole request — including error paths. Propagation does not
  // depend on Tracer::enabled(): the request-id echo and QueryLog
  // stamping work even with span recording off.
  obs::TraceContext context;
  if (const std::string* inbound = request.header("traceparent"))
    if (const auto parsed = obs::TraceContext::from_traceparent(*inbound))
      context = *parsed;
  if (!context.valid()) context = obs::TraceContext::generate();
  const obs::TraceScope trace_scope(context);
  const obs::SpanTimer span("serve.request");
  // Inside the span: the serve.request span itself when recording, the
  // adopted context otherwise — either way the right parent for the
  // caller's next hop.
  const std::string response_parent =
      obs::current_trace().to_traceparent();

  HttpResponse response = [&] {
    try {
      return dispatch(request);
    } catch (const RoutingError& e) {
      // The query was well-formed but unplannable (unreachable within
      // the time budget, label-budget exhaustion): the client's route
      // problem, not a malformed request.
      return error_response(422, e.what());
    } catch (const InvalidArgument& e) {
      return error_response(400, e.what());
    } catch (const GraphError& e) {
      return error_response(400, e.what());
    } catch (const IoError& e) {
      return error_response(400, e.what());
    } catch (const std::exception& e) {
      return error_response(500, e.what());
    }
  }();
  response.set_header("x-sunchase-request-id", context.trace_id_hex());
  response.set_header("traceparent", response_parent);
  return response;
}

const char* RouteService::route_label(std::string_view target) noexcept {
  std::string_view path = target;
  if (const std::size_t query = path.find('?');
      query != std::string_view::npos)
    path = path.substr(0, query);
  if (path == "/plan") return "/plan";
  if (path == "/batch") return "/batch";
  if (path == "/healthz") return "/healthz";
  if (path == "/metrics") return "/metrics";
  if (path == "/world/publish") return "/world/publish";
  if (path.substr(0, 9) == "/explain/") return "/explain";
  if (path.substr(0, 7) == "/debug/") return "/debug";
  return "other";
}

HttpResponse RouteService::dispatch(const HttpRequest& request) {
  // The route server defines no query parameters; strip them so
  // "/healthz?probe=1" still routes.
  std::string path = request.target;
  if (const std::size_t query = path.find('?'); query != std::string::npos)
    path.resize(query);

  const bool is_get = request.method == "GET";
  const bool is_post = request.method == "POST";

  if (path == "/healthz")
    return is_get ? handle_healthz()
                  : error_response(405, "use GET /healthz");
  if (path == "/metrics")
    return is_get ? handle_metrics(request.target)
                  : error_response(405, "use GET /metrics");
  if (path == "/plan")
    return is_post ? handle_plan(request)
                   : error_response(405, "use POST /plan");
  if (path == "/batch")
    return is_post ? handle_batch(request)
                   : error_response(405, "use POST /batch");
  if (path == "/world/publish")
    return is_post ? handle_publish(request)
                   : error_response(405, "use POST /world/publish");
  // The /debug handlers read their own ?since= / ?n= parameters from
  // the unstripped target.
  if (path == "/debug/trace")
    return is_get ? handle_debug_trace(request.target)
                  : error_response(405, "use GET /debug/trace");
  if (path == "/debug/queries")
    return is_get ? handle_debug_queries(request.target)
                  : error_response(405, "use GET /debug/queries");
  if (path == "/debug/worlds")
    return is_get ? handle_debug_worlds()
                  : error_response(405, "use GET /debug/worlds");
  if (path == "/debug/profile")
    return is_get ? handle_debug_profile(request.target)
                  : error_response(405, "use GET /debug/profile");

  constexpr std::string_view kExplain = "/explain/";
  if (path.size() > kExplain.size() &&
      std::string_view(path).substr(0, kExplain.size()) == kExplain) {
    if (!is_get) return error_response(405, "use GET /explain/{query_id}");
    return handle_explain(parse_decimal(
        std::string_view(path).substr(kExplain.size()), "query id"));
  }

  return error_response(404, "unknown path: " + path);
}

core::MlcOptions RouteService::mlc_options_from(const JsonValue& body) {
  core::MlcOptions mlc = options_.mlc;
  if (const JsonValue* pricing = body.find("pricing")) {
    const std::string& name = pricing->as_string();
    if (name == "exact") {
      mlc.pricing = core::PricingMode::Exact;
    } else if (name == "slot") {
      mlc.pricing = core::PricingMode::SlotQuantized;
    } else {
      throw InvalidArgument("pricing must be \"exact\" or \"slot\", got \"" +
                            name + '"');
    }
  }
  if (const JsonValue* factor = body.find("time_budget")) {
    mlc.max_time_factor = factor->as_number();
    // Full validation at the request surface, worded in request terms.
    // Non-finite first: NaN passes every ordered comparison's false
    // branch, and "1e999" parses to +inf — either would otherwise ride
    // into the solver as a budget that never prunes.
    if (!std::isfinite(mlc.max_time_factor))
      throw InvalidArgument("time_budget must be a finite number");
    if (mlc.max_time_factor < 0.0)
      throw InvalidArgument("time_budget must be non-negative");
    if (mlc.max_time_factor > 0.0 && mlc.max_time_factor < 1.0)
      throw InvalidArgument(
          "time_budget must be 0 (unbounded) or >= 1 (a multiple of the "
          "shortest travel time)");
  }
  if (const JsonValue* epsilon = body.find("epsilon")) {
    mlc.epsilon = epsilon->as_number();
    if (!std::isfinite(mlc.epsilon) || mlc.epsilon < 0.0)
      throw InvalidArgument("epsilon must be a finite number >= 0");
  }
  if (const JsonValue* prune = body.find("prune_with_lower_bounds"))
    mlc.prune_with_lower_bounds = prune->as_bool();
  if (const JsonValue* vehicle = body.find("vehicle"))
    mlc.vehicle = integral<std::size_t>(*vehicle, "vehicle");
  if (const JsonValue* dependent = body.find("time_dependent"))
    mlc.time_dependent = dependent->as_bool();
  return mlc;
}

std::uint64_t RouteService::record_answer(core::WorldPtr world,
                                          const core::BatchQuery& query,
                                          const core::MlcOptions& mlc,
                                          const core::CandidateRoute& chosen,
                                          const core::MlcStats& stats,
                                          double cpu_seconds) {
  LedgerEntry entry;
  entry.world = std::move(world);
  entry.origin = query.origin;
  entry.destination = query.destination;
  entry.departure = query.departure;
  entry.pricing = mlc.pricing;
  entry.time_dependent = mlc.time_dependent;
  entry.vehicle = mlc.vehicle;
  entry.route = chosen.route.path;
  entry.cost = chosen.route.cost;
  entry.trace_id = obs::current_trace().trace_id_hex();
  entry.cpu_ms = cpu_seconds * 1000.0;
  entry.labels_created = stats.labels_created;
  entry.queue_pops = stats.queue_pops;
  return ledger_.record(std::move(entry));
}

HttpResponse RouteService::handle_plan(const HttpRequest& request) {
  const JsonValue body = JsonValue::parse(request.body);
  const core::BatchQuery query = query_from(body);

  core::PlannerOptions popts;
  popts.mlc = mlc_options_from(body);
  popts.selection = options_.selection;
  popts.query_log = options_.query_log;

  // Pin the store's current snapshot for this one request; a publish
  // landing mid-plan changes nothing we read.
  const core::WorldPtr world = store_.current();
  const core::SunChasePlanner planner(world, popts);
  const core::PlanResult plan =
      planner.plan(query.origin, query.destination, query.departure);
  const std::uint64_t query_id =
      record_answer(world, query, popts.mlc, plan.recommended(),
                    plan.search_stats, plan.cpu_seconds);

  std::string out = "{";
  out += "\"query_id\":" + std::to_string(query_id);
  out += ",\"world_version\":" + std::to_string(world->version());
  out += ",\"pricing\":" + json_quote(core::pricing_name(popts.mlc.pricing));
  out += ",\"origin\":" + std::to_string(query.origin);
  out += ",\"destination\":" + std::to_string(query.destination);
  out += ",\"departure\":" + json_quote(query.departure.to_string());
  out += ",\"pareto_routes\":" + std::to_string(plan.pareto_route_count);
  out += ",\"clusters\":" + std::to_string(plan.cluster_count);
  out += ",\"recommended\":" +
         std::to_string(plan.has_better_solar() ? 1 : 0);
  out += ",\"candidates\":[";
  for (std::size_t i = 0; i < plan.candidates.size(); ++i) {
    if (i != 0) out += ',';
    out += candidate_json(plan.candidates[i]);
  }
  out += "],\"stats\":{";
  out += "\"labels_created\":" +
         std::to_string(plan.search_stats.labels_created);
  out += ",\"labels_dominated\":" +
         std::to_string(plan.search_stats.labels_dominated);
  out += ",\"queue_pops\":" + std::to_string(plan.search_stats.queue_pops);
  out += ",\"pareto_size\":" + std::to_string(plan.search_stats.pareto_size);
  out += ",\"labels_pruned_bound\":" +
         std::to_string(plan.search_stats.labels_pruned_bound);
  out += ",\"labels_merged_epsilon\":" +
         std::to_string(plan.search_stats.labels_merged_epsilon);
  out += ",\"lower_bound_seconds\":" +
         num(plan.search_stats.lower_bound_seconds);
  out += ",\"search_seconds\":" + num(plan.search_stats.search_seconds);
  out += ",\"cpu_ms\":" + num(plan.cpu_seconds * 1000.0);
  out += "}}";
  return json_response(200, std::move(out));
}

HttpResponse RouteService::handle_batch(const HttpRequest& request) {
  const JsonValue body = JsonValue::parse(request.body);
  const JsonValue* queries_member = body.find("queries");
  if (queries_member == nullptr)
    throw InvalidArgument("missing required field \"queries\"");
  const JsonValue::Array& query_values = queries_member->as_array();
  if (query_values.empty())
    throw InvalidArgument("\"queries\" must not be empty");
  if (query_values.size() > options_.max_batch_queries)
    return error_response(
        413, "batch of " + std::to_string(query_values.size()) +
                 " queries exceeds the limit of " +
                 std::to_string(options_.max_batch_queries));

  std::vector<core::BatchQuery> queries;
  queries.reserve(query_values.size());
  for (const JsonValue& value : query_values)
    queries.push_back(query_from(value));

  core::BatchPlannerOptions bopts;
  bopts.workers = options_.batch_workers;
  bopts.mlc = mlc_options_from(body);
  bopts.run_selection = true;
  bopts.selection = options_.selection;
  bopts.query_log = options_.query_log;

  // Live mode: each query pins store.current() when its worker picks it
  // up, so a /world/publish mid-batch splits the batch across versions
  // without tearing any single query.
  const core::BatchPlanner planner(store_, bopts);
  core::BatchResult result = planner.plan_all(queries);

  std::string rows = "[";
  std::uint64_t version_min = 0;
  std::uint64_t version_max = 0;
  for (std::size_t i = 0; i < result.queries.size(); ++i) {
    core::BatchQueryResult& qr = result.queries[i];
    if (i != 0) rows += ',';
    rows += "{\"index\":" + std::to_string(i);
    if (!qr.ok() || !qr.selection.has_value() ||
        qr.selection->candidates.empty()) {
      rows += ",\"status\":\"error\",\"error\":" +
              json_quote(qr.error.empty() ? "no candidate routes"
                                          : qr.error) +
              "}";
      continue;
    }
    const std::uint64_t version = qr.world->version();
    version_min = version_min == 0 ? version : std::min(version_min, version);
    version_max = std::max(version_max, version);

    const core::CandidateRoute& chosen =
        core::recommended(qr.selection->candidates);
    const std::uint64_t query_id =
        record_answer(qr.world, queries[i], bopts.mlc, chosen,
                      qr.result->stats, qr.cpu_seconds);

    rows += ",\"status\":\"ok\"";
    rows += ",\"query_id\":" + std::to_string(query_id);
    rows += ",\"world_version\":" + std::to_string(version);
    rows += ",\"candidates\":" +
            std::to_string(qr.selection->candidates.size());
    rows += ",\"recommended\":" + candidate_json(chosen);
    rows += "}";
  }
  rows += "]";

  const core::BatchStats& stats = result.stats;
  std::string out = "{";
  out += "\"pricing\":" + json_quote(core::pricing_name(bopts.mlc.pricing));
  out += ",\"world_version\":{\"min\":" + std::to_string(version_min) +
         ",\"max\":" + std::to_string(version_max) + "}";
  out += ",\"stats\":{";
  out += "\"queries\":" + std::to_string(stats.query_count);
  out += ",\"ok\":" + std::to_string(stats.succeeded);
  out += ",\"failed\":" + std::to_string(stats.failed);
  out += ",\"workers\":" + std::to_string(stats.workers);
  out += ",\"wall_seconds\":" + num(stats.wall_seconds);
  out += ",\"queries_per_second\":" + num(stats.queries_per_second);
  out += ",\"p50_ms\":" + num(stats.latency.quantile(0.5) * 1000.0);
  out += ",\"p95_ms\":" + num(stats.latency.quantile(0.95) * 1000.0);
  out += ",\"cpu_seconds\":" + num(stats.cpu_seconds);
  out += "},\"results\":" + rows;
  out += "}";
  return json_response(200, std::move(out));
}

HttpResponse RouteService::handle_explain(std::uint64_t query_id) {
  const std::optional<LedgerEntry> entry = ledger_.find(query_id);
  if (!entry.has_value())
    return error_response(404, "query id " + std::to_string(query_id) +
                                   " is unknown or already evicted");

  // Replay against the snapshot pinned when the query was answered —
  // never the store's current world, which may be versions ahead.
  const core::RouteExplainer explainer(entry->world, entry->vehicle);
  const core::RouteLedger route_ledger = explainer.explain(
      entry->route, entry->departure, entry->time_dependent, entry->pricing);

  std::string out = "{";
  out += "\"query_id\":" + std::to_string(query_id);
  out += ",\"world_version\":" + std::to_string(entry->world->version());
  out += ",\"origin\":" + std::to_string(entry->origin);
  out += ",\"destination\":" + std::to_string(entry->destination);
  out += ",\"departure\":" + json_quote(entry->departure.to_string());
  out += ",\"pricing\":" + json_quote(core::pricing_name(entry->pricing));
  if (!entry->trace_id.empty())
    out += ",\"trace_id\":" + json_quote(entry->trace_id);
  out += ",\"time_dependent\":";
  out += entry->time_dependent ? "true" : "false";
  out += ",\"vehicle\":" + std::to_string(entry->vehicle);
  // What the original answer cost: CPU + the search effort behind it.
  out += ",\"cost_accounting\":{\"cpu_ms\":" + num(entry->cpu_ms);
  out += ",\"labels_created\":" + std::to_string(entry->labels_created);
  out += ",\"queue_pops\":" + std::to_string(entry->queue_pops) + "}";
  out += ",\"conserves\":";
  out += route_ledger.conserves(entry->cost) ? "true" : "false";
  out += ",\"max_deviation\":" + num(route_ledger.max_deviation(entry->cost));
  out += ",\"ledger\":" + route_ledger.to_json();
  out += "}";
  return json_response(200, std::move(out));
}

HttpResponse RouteService::handle_publish(const HttpRequest& request) {
  // Serialize admin publishes: two concurrent folds would each read
  // current() and race to publish, silently dropping one fold's
  // observations from the lineage.
  const std::lock_guard<std::mutex> lock(publish_mutex_);

  std::size_t observation_count = 0;
  double coverage = 0.0;
  core::WorldPtr published;

  const bool empty_body =
      request.body.find_first_not_of(" \t\r\n") == std::string::npos;
  if (empty_body) {
    // No observations: still roll the version (a forced refresh), which
    // rebuilds the solar map and slot caches from the same recipe.
    published = store_.publish(store_.current()->recipe());
  } else {
    const JsonValue body = JsonValue::parse(request.body);
    const JsonValue* observations = body.find("observations");
    if (observations == nullptr)
      throw InvalidArgument("missing required field \"observations\"");

    crowd::CrowdSolarMap::Options copts;
    if (const JsonValue* min_obs = body.find("min_observations"))
      copts.min_observations = integral<int>(*min_obs, "min_observations", 1);

    const core::WorldPtr base = store_.current();
    // The prior is never consulted: fold_observations falls back to the
    // base snapshot's profile for uncovered cells, not to the map prior.
    crowd::CrowdSolarMap crowd(
        base->graph().edge_count(),
        [](roadnet::EdgeId, TimeOfDay) { return 0.0; }, copts);
    for (const JsonValue& value : observations->as_array()) {
      crowd::Observation observation;
      const JsonValue* edge = value.find("edge");
      const JsonValue* slot = value.find("slot");
      const JsonValue* fraction = value.find("shaded_fraction");
      if (edge == nullptr || slot == nullptr || fraction == nullptr)
        throw InvalidArgument(
            "each observation needs edge, slot, shaded_fraction");
      observation.edge = integral<roadnet::EdgeId>(*edge, "edge");
      observation.slot = integral<int>(*slot, "slot");
      observation.shaded_fraction = fraction->as_number();
      if (const JsonValue* id = value.find("vehicle_id"))
        observation.vehicle_id = integral<std::uint64_t>(*id, "vehicle_id");
      crowd.report(observation);
    }
    observation_count = crowd.observation_count();
    coverage = crowd.coverage();
    published = crowd::publish_crowd_world(store_, crowd);
  }

  std::string out = "{";
  out += "\"world_version\":" + std::to_string(published->version());
  out += ",\"observations\":" + std::to_string(observation_count);
  out += ",\"coverage\":" + num(coverage);
  const core::JournalState journal = store_.journal_state();
  out += ",\"journal\":{\"enabled\":";
  out += journal.enabled ? "true" : "false";
  if (journal.enabled) {
    out += ",\"persisted_version\":" +
           std::to_string(journal.persisted_version);
  }
  out += "}}";
  return json_response(200, std::move(out));
}

HttpResponse RouteService::handle_healthz() {
  const double uptime = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started_)
                            .count();
  std::string out = "{";
  out += "\"status\":";
  out += draining() ? "\"draining\"" : "\"ok\"";
  out += ",\"draining\":";
  out += draining() ? "true" : "false";
  out += ",\"world_version\":" + std::to_string(store_.current()->version());
  out += ",\"uptime_seconds\":" + num(uptime);
  out += ",\"queries_served\":" + std::to_string(ledger_.recorded());
  out += "}";
  return json_response(200, std::move(out));
}

HttpResponse RouteService::handle_debug_profile(const std::string& target) {
  const std::optional<std::string> format = query_param(target, "format");
  if (format.has_value() && *format != "json" && *format != "collapsed")
    return error_response(400, "format must be \"json\" or \"collapsed\"");
  const std::uint64_t reset = uint_param(target, "reset", 0);

  obs::Profiler& profiler = obs::Profiler::global();
  HttpResponse response;
  if (format.has_value() && *format == "json") {
    response = json_response(200, profiler.to_json() + "\n");
  } else {
    // Collapsed-stack text (the default): pipe straight into
    // flamegraph.pl / speedscope.
    response.status = 200;
    response.set_header("content-type", "text/plain");
    response.body = profiler.collapsed();
  }
  // Snapshot-then-reset: the response carries the folds that were
  // dropped, so a poller loses nothing.
  if (reset != 0) profiler.reset();
  return response;
}

HttpResponse RouteService::handle_debug_trace(const std::string& target) {
  // to_chrome_json already is the response body: a poller remembers the
  // document's "now_us" and passes it back as ?since= next time to see
  // only spans that ended in between.
  const std::uint64_t since = uint_param(target, "since", 0);
  return json_response(200, obs::Tracer::global().to_chrome_json(since));
}

HttpResponse RouteService::handle_debug_queries(const std::string& target) {
  const std::uint64_t n = uint_param(target, "n", 32);
  std::string out = "{";
  if (options_.query_log == nullptr) {
    out += "\"enabled\":false,\"count\":0,\"queries\":[]}";
    return json_response(200, std::move(out));
  }
  const std::vector<std::string> lines = options_.query_log->tail(
      static_cast<std::size_t>(std::min<std::uint64_t>(
          n, obs::QueryLog::kTailCapacity)));
  out += "\"enabled\":true";
  out += ",\"recorded\":" +
         std::to_string(options_.query_log->record_count());
  out += ",\"count\":" + std::to_string(lines.size());
  out += ",\"queries\":[";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i != 0) out += ',';
    out += lines[i];  // each line already is one JSON object
  }
  out += "]}";
  return json_response(200, std::move(out));
}

HttpResponse RouteService::handle_debug_worlds() {
  const core::WorldPtr current = store_.current();
  std::string out = "{";
  out += "\"current_version\":" + std::to_string(current->version());
  out += ",\"vehicles\":" + std::to_string(current->vehicle_count());
  const core::SlotCostCache& cache = current->slot_cache();
  out += ",\"slot_cache\":{\"filled_slots\":" +
         std::to_string(cache.filled_slots()) +
         ",\"bytes\":" + std::to_string(cache.bytes()) + "}";
  out += ",\"lineage\":[";
  const std::vector<core::WorldVersionInfo> rows = store_.lineage();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const core::WorldVersionInfo& row = rows[i];
    if (i != 0) out += ',';
    out += "{\"version\":" + std::to_string(row.version);
    out += ",\"current\":";
    out += row.current ? "true" : "false";
    out += ",\"alive\":";
    out += row.alive ? "true" : "false";
    out += ",\"pins\":" + std::to_string(row.pins);
    out += "}";
  }
  out += "]";
  const core::JournalState journal = store_.journal_state();
  out += ",\"journal\":{\"enabled\":";
  out += journal.enabled ? "true" : "false";
  if (journal.enabled) {
    out += ",\"directory\":" + json_quote(journal.directory);
    out += ",\"persisted_version\":" +
           std::to_string(journal.persisted_version);
    out += ",\"persist_failures\":" +
           std::to_string(journal.persist_failures);
    out += ",\"snapshots_on_disk\":" +
           std::to_string(journal.snapshots_on_disk);
  }
  out += "}}";
  return json_response(200, std::move(out));
}

HttpResponse RouteService::handle_metrics(const std::string& target) {
  const std::optional<std::string> format = query_param(target, "format");
  if (format.has_value() && *format == "json")
    return json_response(200,
                         obs::Registry::global().snapshot().to_json() + "\n");
  if (format.has_value() && *format != "prometheus")
    return error_response(400, "format must be \"prometheus\" or \"json\"");
  HttpResponse response;
  response.status = 200;
  response.set_header("content-type", "text/plain; version=0.0.4");
  response.body = obs::Registry::global().snapshot().to_prometheus();
  return response;
}

}  // namespace sunchase::serve
