// sunchase_cli — a small command-line front end over the public API:
// generate (or load) a city, plan a trip, print the candidate table
// and optionally dump GeoJSON.
//
//   sunchase_cli [options]
//     --rows N --cols N        city size (default 10x10)
//     --seed S                 city seed (default 7)
//     --from R,C --to R,C      lattice coordinates of the trip
//     --time HH:MM             departure (default 10:00)
//     --ev lv|tesla            vehicle model (default lv)
//     --panel W                panel power C in watts (default 200)
//     --time-budget F          max_time_factor (default 1.5)
//     --epsilon F              epsilon-dominance merge factor (default 0
//                              — exact Pareto search)
//     --no-prune               disable reverse-Dijkstra lower-bound
//                              pruning (exact either way; for A/B runs)
//     --pricing exact|slot     edge pricing mode (default exact; batch
//                              defaults to slot — shared cost cache)
//     --geojson FILE           write the plan as GeoJSON
//     --graph-out FILE         write the road graph (text format)
//     --scene-out FILE         write the scene (text format)
//     --metrics-out FILE       write a JSON metrics run report
//     --trace-out FILE         write a Chrome trace_event JSON
//     --trace                  record spans without a file (serve mode:
//                              export live via GET /debug/trace)
//     --profile                run the sampling span-stack profiler
//                              (serve mode: export live via
//                              GET /debug/profile)
//     --profile-interval-ms N  sampling period (default 10)
//     --profile-out FILE       write collapsed stacks (flamegraph
//                              format) at exit; implies --profile
//     --log-level LEVEL        debug|info|warning|error|off
//     --query-log FILE         append one JSONL record per query
//     --slow-query-ms N        warn-log queries slower than N ms
//
//   sunchase_cli batch --queries FILE [--workers N] [world options]
//     runs every query of FILE (one "FROM_R,FROM_C TO_R,TO_C HH:MM"
//     per line, '#' comments) through the parallel BatchPlanner
//     (search + route selection) and prints one result row per query
//     plus batch throughput and per-query latency percentiles.
//
//   sunchase_cli serve [--port N] [--host ADDR] [--http-workers N]
//       [--queue-capacity N] [--deadline-s F] [--read-timeout-s F]
//       [--port-file FILE] [--access-log FILE] [--test-hooks]
//       [--world-dir DIR] [world options]
//     embeds the engine behind an HTTP/1.1 server (POST /plan, POST
//     /batch, GET /explain/{id}, GET /metrics, GET /healthz, POST
//     /world/publish, GET /debug/{trace,queries,worlds}) over a
//     WorldStore, serving the generated city. With --trace the live
//     span ring is exported via GET /debug/trace; with --query-log the
//     last records are also visible via GET /debug/queries.
//     --port 0 binds an ephemeral port; --port-file writes the bound
//     port for scripting. SIGINT/SIGTERM drain gracefully: in-flight
//     and queued requests finish before exit.
//     --world-dir DIR makes the store persistent: boot restores the
//     newest intact snapshot from DIR (skipping torn/corrupt tails)
//     instead of rebuilding from scratch, and every publish journals
//     the new version durably before it becomes visible.
//
//   sunchase_cli snapshot save FILE [world options]
//   sunchase_cli snapshot load FILE
//   sunchase_cli snapshot inspect FILE
//     save builds the city world and writes it as a versioned,
//     checksummed binary snapshot; load mmaps one back (zero-copy) and
//     prints a summary; inspect dumps the section table with per-
//     section checksum verdicts (exit 5 when any section is corrupt).
//
//   sunchase_cli explain [--graph FILE] [--scene FILE]
//       [--from-node N] [--to-node N] [--time HH:MM] [--ev lv|tesla]
//       [--panel W] [--time-budget F] [--ledger-out FILE]
//       [--ledger-csv FILE] [--geojson FILE]
//     plans on a graph/scene pair loaded from disk (default
//     data/demo_downtown.*), prints the recommended route's per-edge
//     energy ledger, verifies the conservation invariant (ledger sums
//     == search criteria; exit 4 on violation) and optionally writes
//     the ledger as JSON/CSV plus a per-edge annotated GeoJSON.
//
// Examples:
//   sunchase_cli --rows 12 --cols 12 --from 1,1 --to 9,10 --time 10:00
//   sunchase_cli batch --queries fleet.txt --workers 4
//       --metrics-out m.json --trace-out t.json --query-log q.jsonl
//   sunchase_cli explain --from-node 0 --to-node 63 --time 09:30
//       --ledger-out ledger.json --geojson explain.geojson
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sunchase/common/error.h"
#include "sunchase/common/logging.h"
#include "sunchase/core/batch_planner.h"
#include "sunchase/core/explain.h"
#include "sunchase/core/world.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/obs/profiler.h"
#include "sunchase/obs/query_log.h"
#include "sunchase/obs/trace.h"
#include "sunchase/core/planner.h"
#include "sunchase/core/world_codec.h"
#include "sunchase/core/world_store.h"
#include "sunchase/exporter/geojson.h"
#include "sunchase/serve/server.h"
#include "sunchase/roadnet/citygen.h"
#include "sunchase/roadnet/io.h"
#include "sunchase/roadnet/traffic.h"
#include "sunchase/shadow/scene_io.h"
#include "sunchase/shadow/scenegen.h"
#include "sunchase/solar/input_map.h"

using namespace sunchase;

namespace {

struct CliOptions {
  int rows = 10;
  int cols = 10;
  std::uint64_t seed = 7;
  int from_row = 1, from_col = 1;
  int to_row = 8, to_col = 8;
  std::string time = "10:00";
  std::string ev = "lv";
  double panel_w = 200.0;
  double time_budget = 1.5;
  double epsilon = 0.0;  ///< epsilon-dominance merge (0: exact search)
  bool prune = true;     ///< lower-bound budget pruning (--no-prune off)
  /// "" resolves after parsing: "slot" for batch (the shared cache is
  /// what makes fleets fast), "exact" everywhere else.
  std::string pricing;
  std::string geojson_path;
  std::string graph_out;
  std::string scene_out;
  // observability
  std::string metrics_out;
  std::string trace_out;
  bool trace = false;  ///< record spans even without --trace-out
  bool profile = false;          ///< run the sampling profiler
  int profile_interval_ms = 10;  ///< sampling period
  std::string profile_out;       ///< collapsed-stack file; implies profile
  std::string log_level;
  std::string query_log_path;
  double slow_query_ms = 0.0;  ///< 0: slow-query warnings off
  // batch mode
  bool batch = false;
  std::string queries_path;
  std::size_t workers = 0;  ///< 0: one per hardware thread
  // serve mode
  bool serve = false;
  std::string host = "127.0.0.1";
  int port = 8080;  ///< 0: ephemeral (read it back via --port-file)
  std::size_t http_workers = 4;
  std::size_t queue_capacity = 64;
  double deadline_s = 10.0;
  double read_timeout_s = 5.0;
  std::string port_file;
  std::string access_log;
  bool test_hooks = false;
  std::string world_dir;  ///< journal directory ("": in-memory only)
  // snapshot mode
  std::string snapshot_action;  ///< save|load|inspect ("": not snapshot)
  std::string snapshot_file;
  // explain mode
  bool explain = false;
  std::string graph_path = "data/demo_downtown.graph";
  std::string scene_path = "data/demo_downtown.scene";
  int from_node = 0;
  int to_node = -1;  ///< -1: last node of the loaded graph
  std::string ledger_out;
  std::string ledger_csv;
};

bool parse_pair(const char* text, int& a, int& b) {
  return std::sscanf(text, "%d,%d", &a, &b) == 2;
}

/// The --pricing flag (after defaulting) as a PricingMode; false on an
/// unknown spelling.
bool parse_pricing(const std::string& text, core::PricingMode& mode) {
  if (text == "exact") {
    mode = core::PricingMode::Exact;
    return true;
  }
  if (text == "slot") {
    mode = core::PricingMode::SlotQuantized;
    return true;
  }
  return false;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--rows N] [--cols N] [--seed S] [--from R,C] "
               "[--to R,C]\n"
               "          [--time HH:MM] [--ev lv|tesla] [--panel W]\n"
               "          [--time-budget F] [--epsilon F] [--no-prune] "
               "[--pricing exact|slot] "
               "[--geojson FILE] "
               "[--graph-out FILE] [--scene-out FILE]\n"
               "       %s batch --queries FILE [--workers N] "
               "[world options as above]\n"
               "         query file: one \"FROM_R,FROM_C TO_R,TO_C HH:MM\" "
               "per line, '#' comments\n"
               "       %s serve [--port N] [--host ADDR] "
               "[--http-workers N] [--queue-capacity N]\n"
               "         [--deadline-s F] [--read-timeout-s F] "
               "[--port-file FILE]\n"
               "         [--access-log FILE] [--test-hooks] "
               "[world options as above]\n"
               "         [--world-dir DIR (persistent worlds: restore on "
               "boot, journal publishes)]\n"
               "       %s snapshot save|load|inspect FILE "
               "[world options for save]\n"
               "       %s explain [--graph FILE] [--scene FILE] "
               "[--from-node N] [--to-node N]\n"
               "         [--time HH:MM] [--ev lv|tesla] [--panel W] "
               "[--time-budget F]\n"
               "         [--ledger-out FILE] [--ledger-csv FILE] "
               "[--geojson FILE]\n"
               "       observability (all modes): [--metrics-out FILE] "
               "[--trace-out FILE] [--trace]\n"
               "         [--profile] [--profile-interval-ms N] "
               "[--profile-out FILE]\n"
               "         [--log-level debug|info|warning|error|off]\n"
               "         [--query-log FILE] [--slow-query-ms N]\n",
               argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// Parses the batch query file against the city lattice. Throws IoError
/// on unreadable files or malformed lines.
std::vector<core::BatchQuery> read_queries(const std::string& path,
                                           const roadnet::GridCity& city) {
  std::ifstream in(path);
  if (!in) throw IoError("batch: cannot open query file " + path);
  std::vector<core::BatchQuery> queries;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    int fr, fc, tr, tc, hh, mm;
    if (std::sscanf(line.c_str(), "%d,%d %d,%d %d:%d", &fr, &fc, &tr, &tc,
                    &hh, &mm) != 6)
      throw IoError("batch: malformed query at " + path + ":" +
                    std::to_string(lineno) + ": " + line);
    queries.push_back({city.node_at(fr, fc), city.node_at(tr, tc),
                       TimeOfDay::hms(hh, mm)});
  }
  return queries;
}

/// --query-log: opens the JSONL sink and applies --slow-query-ms.
/// Null when the flag is absent; keep it alive for the planning run.
std::unique_ptr<obs::QueryLog> open_query_log(const CliOptions& opt) {
  if (opt.query_log_path.empty()) return nullptr;
  auto log = std::make_unique<obs::QueryLog>(opt.query_log_path);
  log->set_slow_threshold(Seconds{opt.slow_query_ms / 1e3});
  return log;
}

/// Bundles a loaded/generated graph, its shading profile, traffic, the
/// panel-power setting, and the selected vehicle into the immutable
/// snapshot every planning API consumes.
core::WorldPtr make_world(const roadnet::RoadGraph& graph,
                          const shadow::Scene& scene,
                          const CliOptions& opt) {
  core::WorldInit init;
  init.graph = std::make_shared<const roadnet::RoadGraph>(graph);
  init.shading = std::make_shared<const shadow::ShadingProfile>(
      shadow::ShadingProfile::compute_exact(
          *init.graph, scene, geo::DayOfYear{196}, TimeOfDay::hms(8, 0),
          TimeOfDay::hms(18, 30)));
  init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
      roadnet::UrbanTraffic::Options{});
  init.panel_power = solar::constant_panel_power(Watts{opt.panel_w});
  init.vehicles.push_back(std::shared_ptr<const ev::ConsumptionModel>(
      opt.ev == "tesla" ? ev::make_tesla_model_s()
                        : ev::make_lv_prototype()));
  return core::World::create(std::move(init));
}

/// City world per the lattice options — the build path shared by serve
/// (when nothing is restored from --world-dir) and `snapshot save`.
core::WorldPtr build_city_world(const CliOptions& opt) {
  roadnet::GridCityOptions city_options;
  city_options.rows = opt.rows;
  city_options.cols = opt.cols;
  city_options.seed = opt.seed;
  const roadnet::GridCity city(city_options);
  const geo::LocalProjection projection(city_options.origin);
  const shadow::Scene scene =
      generate_scene(city.graph(), projection, shadow::SceneGenOptions{});
  return make_world(city.graph(), scene, opt);
}

/// snapshot mode: save a generated city world to a binary snapshot
/// file, mmap one back (zero-copy) and summarize it, or dump a file's
/// section table with per-section checksum verdicts.
int run_snapshot(const CliOptions& opt) {
  if (opt.snapshot_action == "inspect") {
    const core::SnapshotInfo info =
        core::inspect_world_snapshot(opt.snapshot_file);
    std::printf("%s: world v%llu, %llu bytes, %zu sections\n",
                info.path.c_str(),
                static_cast<unsigned long long>(info.world_version),
                static_cast<unsigned long long>(info.file_bytes),
                info.sections.size());
    std::printf("%-18s %6s %10s %12s %9s %s\n", "section", "aux", "offset",
                "bytes", "crc32", "ok");
    for (const core::SnapshotSectionInfo& s : info.sections)
      std::printf("%-18s %6u %10llu %12llu  %08x %s\n", s.name.c_str(),
                  s.aux, static_cast<unsigned long long>(s.offset),
                  static_cast<unsigned long long>(s.bytes), s.crc,
                  s.crc_ok ? "ok" : "CORRUPT");
    if (!info.intact) {
      std::fprintf(stderr, "error: %s has corrupt sections\n",
                   info.path.c_str());
      return 5;
    }
    return 0;
  }
  if (opt.snapshot_action == "load") {
    const core::WorldPtr world = core::load_world_snapshot(opt.snapshot_file);
    std::printf("%s: world v%llu — %zu nodes, %zu edges, %zu vehicles\n",
                opt.snapshot_file.c_str(),
                static_cast<unsigned long long>(world->version()),
                world->graph().node_count(), world->graph().edge_count(),
                world->vehicle_count());
    return 0;
  }
  const core::WorldPtr world = build_city_world(opt);
  core::save_world_snapshot(*world, opt.snapshot_file);
  const core::SnapshotInfo info =
      core::inspect_world_snapshot(opt.snapshot_file);
  std::printf("wrote %s: world v%llu, %llu bytes, %zu sections\n",
              opt.snapshot_file.c_str(),
              static_cast<unsigned long long>(info.world_version),
              static_cast<unsigned long long>(info.file_bytes),
              info.sections.size());
  return 0;
}

/// The search options every mode takes from the command line.
core::MlcOptions mlc_options(const CliOptions& opt, core::PricingMode pricing) {
  core::MlcOptions mlc;
  mlc.max_time_factor = opt.time_budget;
  mlc.epsilon = opt.epsilon;
  mlc.prune_with_lower_bounds = opt.prune;
  mlc.pricing = pricing;
  return mlc;
}

int run_batch(const CliOptions& opt, core::PricingMode pricing,
              const core::WorldPtr& world, const roadnet::GridCity& city) {
  const auto queries = read_queries(opt.queries_path, city);
  const std::unique_ptr<obs::QueryLog> query_log = open_query_log(opt);
  core::BatchPlannerOptions batch_options;
  batch_options.workers = opt.workers;
  batch_options.mlc = mlc_options(opt, pricing);
  // Run the full pipeline (search + clustering + selection) per query:
  // the candidate list is what a route server would hand the fleet.
  batch_options.run_selection = true;
  if (query_log) batch_options.query_log = query_log.get();
  const core::BatchPlanner planner(world, batch_options);
  const core::BatchResult batch = planner.plan_all(queries);

  std::printf("%-4s %-6s %-6s %-8s %8s %6s %8s %8s\n", "#", "from", "to",
              "depart", "routes", "cands", "TT (s)", "EC (Wh)");
  for (std::size_t i = 0; i < batch.queries.size(); ++i) {
    const auto& q = batch.queries[i];
    if (!q.ok()) {
      std::printf("%-4zu %-6u %-6u %-8s error: %s\n", i, queries[i].origin,
                  queries[i].destination,
                  queries[i].departure.to_string().c_str(), q.error.c_str());
      continue;
    }
    const auto& best = q.result->routes.front();
    std::printf("%-4zu %-6u %-6u %-8s %8zu %6zu %8.1f %8.2f\n", i,
                queries[i].origin, queries[i].destination,
                queries[i].departure.to_string().c_str(),
                q.result->routes.size(),
                q.selection ? q.selection->candidates.size() : 0,
                best.cost.travel_time.value(), best.cost.energy_out.value());
  }
  std::printf("\n%zu queries (%zu ok, %zu failed) on %zu workers "
              "(%s pricing): %.3f s wall, %.2f queries/sec\n",
              batch.stats.query_count, batch.stats.succeeded,
              batch.stats.failed, batch.stats.workers,
              core::pricing_name(pricing), batch.stats.wall_seconds,
              batch.stats.queries_per_second);
  std::printf("per-query latency: p50 %.1f ms, p95 %.1f ms, max %.1f ms\n",
              batch.stats.latency.quantile(0.50) * 1e3,
              batch.stats.latency.quantile(0.95) * 1e3,
              batch.stats.latency.max * 1e3);
  if (query_log)
    std::printf("query log: %llu records (%llu slow) -> %s\n",
                static_cast<unsigned long long>(query_log->record_count()),
                static_cast<unsigned long long>(query_log->slow_count()),
                opt.query_log_path.c_str());
  return batch.stats.failed == 0 ? 0 : 3;
}

/// The running server, for the signal handlers. request_stop() is
/// async-signal-safe (one atomic store), so the handler body is legal.
std::atomic<serve::HttpServer*> g_server{nullptr};

extern "C" void handle_stop_signal(int) {
  if (serve::HttpServer* server = g_server.load()) server->request_stop();
}

/// serve mode: WorldStore + RouteService + HttpServer over the
/// generated city, blocking until SIGINT/SIGTERM drains the server.
int run_serve(const CliOptions& opt, core::PricingMode pricing,
              core::WorldPtr world) {
  core::WorldStore store(std::move(world));
  if (!opt.world_dir.empty()) store.enable_journal(opt.world_dir);
  const std::unique_ptr<obs::QueryLog> query_log = open_query_log(opt);

  serve::RouteServiceOptions service_options;
  service_options.mlc = mlc_options(opt, pricing);
  service_options.query_log = query_log.get();
  serve::RouteService service(store, service_options);

  serve::HttpServerOptions server_options;
  server_options.host = opt.host;
  server_options.port = static_cast<std::uint16_t>(opt.port);
  server_options.workers = opt.http_workers;
  server_options.queue_capacity = opt.queue_capacity;
  server_options.deadline_seconds = opt.deadline_s;
  server_options.read_timeout_seconds = opt.read_timeout_s;
  server_options.access_log_path = opt.access_log;
  server_options.test_hooks = opt.test_hooks;
  serve::HttpServer server(service, server_options);
  server.start();

  if (!opt.port_file.empty()) {
    std::ofstream out(opt.port_file);
    if (!out) throw IoError("cannot write port file " + opt.port_file);
    out << server.port() << '\n';
  }
  std::printf("serving %dx%d city (world v%llu, %s pricing) on %s:%u — "
              "SIGTERM drains\n",
              opt.rows, opt.cols,
              static_cast<unsigned long long>(store.version()),
              core::pricing_name(pricing), opt.host.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  g_server.store(&server);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  server.join();
  g_server.store(nullptr);

  std::printf("drained: %llu queries answered\n",
              static_cast<unsigned long long>(service.ledger().recorded()));
  return 0;
}

/// explain mode: plan on a graph/scene pair loaded from disk, then walk
/// the recommended route edge by edge and check the ledger sums against
/// the search's criteria vector.
int run_explain(const CliOptions& opt, core::PricingMode pricing) {
  const roadnet::RoadGraph loaded = roadnet::read_graph_file(opt.graph_path);
  const shadow::Scene scene = shadow::read_scene_file(opt.scene_path);
  const core::WorldPtr world = make_world(loaded, scene, opt);
  const roadnet::RoadGraph& graph = world->graph();

  const auto origin = static_cast<roadnet::NodeId>(opt.from_node);
  const auto destination = static_cast<roadnet::NodeId>(
      opt.to_node >= 0 ? opt.to_node
                       : static_cast<int>(graph.node_count()) - 1);
  const TimeOfDay departure = TimeOfDay::parse(opt.time);

  core::PlannerOptions planner_options;
  planner_options.mlc = mlc_options(opt, pricing);
  const core::SunChasePlanner planner(world, planner_options);
  const core::PlanResult plan = planner.plan(origin, destination, departure);
  const core::CandidateRoute& best = plan.recommended();

  // The ledger replays whichever pricing mode produced the route, so
  // the conservation check below stays bit-exact in both modes.
  const core::RouteExplainer explainer(world);
  const core::RouteLedger ledger = explainer.explain(
      best.route, departure, planner_options.mlc.time_dependent, pricing);

  std::printf("%s %u -> %u, departing %s (%s route, %zu edges)\n",
              opt.graph_path.c_str(), origin, destination,
              departure.to_string().c_str(),
              best.is_shortest_time ? "shortest-time" : "better-solar",
              ledger.steps.size());
  std::printf("%-4s %-5s %-8s %7s %6s %6s %8s %8s %8s\n", "#", "edge",
              "entry", "len(m)", "km/h", "shade", "TT (s)", "EI (Wh)",
              "EC (Wh)");
  for (std::size_t i = 0; i < ledger.steps.size(); ++i) {
    const core::ExplainStep& s = ledger.steps[i];
    std::printf("%-4zu %-5u %-8s %7.1f %6.1f %6.2f %8.2f %8.3f %8.3f\n", i,
                s.edge, s.entry.to_string().c_str(), s.length.value(),
                to_kmh(s.speed), s.shade_ratio, s.travel_time.value(),
                s.energy_in.value(), s.energy_out.value());
  }
  std::printf("totals: %.0f m, %.1f s travel, %.1f s solar, %.3f Wh in, "
              "%.3f Wh out\n",
              ledger.totals.total_length.value(),
              ledger.totals.travel_time.value(),
              ledger.totals.solar_time.value(),
              ledger.totals.energy_in.value(),
              ledger.totals.energy_out.value());

  const double deviation = ledger.max_deviation(best.route.cost);
  std::printf("conservation: ledger sums vs search criteria deviate by "
              "%.3g (%s)\n",
              deviation, deviation <= 1e-6 ? "ok" : "VIOLATED");

  if (!opt.ledger_out.empty()) {
    std::ofstream out(opt.ledger_out);
    if (!out) throw IoError("cannot write ledger " + opt.ledger_out);
    out << ledger.to_json();
    std::printf("wrote %s\n", opt.ledger_out.c_str());
  }
  if (!opt.ledger_csv.empty()) {
    std::ofstream out(opt.ledger_csv);
    if (!out) throw IoError("cannot write ledger CSV " + opt.ledger_csv);
    out << ledger.to_csv();
    std::printf("wrote %s\n", opt.ledger_csv.c_str());
  }
  if (!opt.geojson_path.empty()) {
    std::ofstream out(opt.geojson_path);
    if (!out) throw IoError("cannot write GeoJSON " + opt.geojson_path);
    out << exporter::geojson_explained_route(graph, ledger);
    std::printf("wrote %s\n", opt.geojson_path.c_str());
  }
  return ledger.conserves(best.route.cost) ? 0 : 4;
}

/// --metrics-out: a structured run report — the run's identity plus a
/// full registry snapshot.
void write_metrics_report(const std::string& path, const char* mode) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot write metrics report " + path);
  out << "{\n  \"tool\": \"sunchase_cli\",\n  \"mode\": \"" << mode
      << "\",\n  \"metrics\":\n"
      << obs::Registry::global().snapshot().to_json(2) << "\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

void write_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot write trace " + path);
  out << obs::Tracer::global().to_chrome_json();
  std::printf("wrote %s (%zu spans; open in chrome://tracing or "
              "https://ui.perfetto.dev)\n",
              path.c_str(), obs::Tracer::global().span_count());
}

/// --profile summary: the hottest folded stacks, like `perf report`
/// for spans. Printed after batch runs so the paper's "where do the
/// cycles go" question is answered from the terminal.
void print_profile_summary() {
  obs::Profiler& profiler = obs::Profiler::global();
  const std::vector<obs::ProfileEntry> top = profiler.entries(10);
  if (top.empty()) {
    std::printf("profile: no samples landed in a span (run too short for "
                "the %d ms interval?)\n",
                profiler.interval_ms());
    return;
  }
  std::printf("\nprofile: top stacks (%llu samples, %llu idle, %d ms "
              "interval)\n",
              static_cast<unsigned long long>(profiler.samples_total()),
              static_cast<unsigned long long>(profiler.samples_idle()),
              profiler.interval_ms());
  for (const obs::ProfileEntry& entry : top)
    std::printf("  %8llu  %s\n",
                static_cast<unsigned long long>(entry.count),
                entry.stack.c_str());
}

/// --profile-out: collapsed-stack text, flamegraph.pl-ready.
void write_profile(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot write profile " + path);
  out << obs::Profiler::global().collapsed();
  std::printf("wrote %s (pipe into flamegraph.pl or load in "
              "speedscope)\n",
              path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  int first = 1;
  if (argc > 1 && std::strcmp(argv[1], "batch") == 0) {
    opt.batch = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "explain") == 0) {
    opt.explain = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    opt.serve = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "snapshot") == 0) {
    if (argc < 4) return usage(argv[0]);
    opt.snapshot_action = argv[2];
    opt.snapshot_file = argv[3];
    if (opt.snapshot_action != "save" && opt.snapshot_action != "load" &&
        opt.snapshot_action != "inspect")
      return usage(argv[0]);
    first = 4;
  }
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--rows" && (v = next()))
      opt.rows = std::atoi(v);
    else if (arg == "--cols" && (v = next()))
      opt.cols = std::atoi(v);
    else if (arg == "--seed" && (v = next()))
      opt.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--from" && (v = next())) {
      if (!parse_pair(v, opt.from_row, opt.from_col)) return usage(argv[0]);
    } else if (arg == "--to" && (v = next())) {
      if (!parse_pair(v, opt.to_row, opt.to_col)) return usage(argv[0]);
    } else if (arg == "--time" && (v = next()))
      opt.time = v;
    else if (arg == "--ev" && (v = next()))
      opt.ev = v;
    else if (arg == "--panel" && (v = next()))
      opt.panel_w = std::atof(v);
    else if (arg == "--time-budget" && (v = next()))
      opt.time_budget = std::atof(v);
    else if (arg == "--epsilon" && (v = next()))
      opt.epsilon = std::atof(v);
    else if (arg == "--no-prune")
      opt.prune = false;
    else if (arg == "--pricing" && (v = next()))
      opt.pricing = v;
    else if (arg == "--geojson" && (v = next()))
      opt.geojson_path = v;
    else if (arg == "--graph-out" && (v = next()))
      opt.graph_out = v;
    else if (arg == "--scene-out" && (v = next()))
      opt.scene_out = v;
    else if (arg == "--metrics-out" && (v = next()))
      opt.metrics_out = v;
    else if (arg == "--trace-out" && (v = next()))
      opt.trace_out = v;
    else if (arg == "--trace")
      opt.trace = true;
    else if (arg == "--profile")
      opt.profile = true;
    else if (arg == "--profile-interval-ms" && (v = next()))
      opt.profile_interval_ms = std::atoi(v);
    else if (arg == "--profile-out" && (v = next()))
      opt.profile_out = v;
    else if (arg == "--log-level" && (v = next()))
      opt.log_level = v;
    else if (arg == "--queries" && (v = next()))
      opt.queries_path = v;
    else if (arg == "--workers" && (v = next()))
      opt.workers = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    else if (arg == "--query-log" && (v = next()))
      opt.query_log_path = v;
    else if (arg == "--slow-query-ms" && (v = next()))
      opt.slow_query_ms = std::atof(v);
    else if (arg == "--graph" && (v = next()))
      opt.graph_path = v;
    else if (arg == "--scene" && (v = next()))
      opt.scene_path = v;
    else if (arg == "--from-node" && (v = next()))
      opt.from_node = std::atoi(v);
    else if (arg == "--to-node" && (v = next()))
      opt.to_node = std::atoi(v);
    else if (arg == "--ledger-out" && (v = next()))
      opt.ledger_out = v;
    else if (arg == "--ledger-csv" && (v = next()))
      opt.ledger_csv = v;
    else if (arg == "--host" && (v = next()))
      opt.host = v;
    else if (arg == "--port" && (v = next()))
      opt.port = std::atoi(v);
    else if (arg == "--http-workers" && (v = next()))
      opt.http_workers =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    else if (arg == "--queue-capacity" && (v = next()))
      opt.queue_capacity =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    else if (arg == "--deadline-s" && (v = next()))
      opt.deadline_s = std::atof(v);
    else if (arg == "--read-timeout-s" && (v = next()))
      opt.read_timeout_s = std::atof(v);
    else if (arg == "--port-file" && (v = next()))
      opt.port_file = v;
    else if (arg == "--access-log" && (v = next()))
      opt.access_log = v;
    else if (arg == "--test-hooks")
      opt.test_hooks = true;
    else if (arg == "--world-dir" && (v = next()))
      opt.world_dir = v;
    else
      return usage(argv[0]);
  }
  if (opt.batch && opt.queries_path.empty()) return usage(argv[0]);

  // Batch and serve default to slot-quantized pricing (fleet queries
  // share the per-slot cost cache); single plan and explain default to
  // exact.
  if (opt.pricing.empty())
    opt.pricing = (opt.batch || opt.serve) ? "slot" : "exact";
  core::PricingMode pricing = core::PricingMode::Exact;
  if (!parse_pricing(opt.pricing, pricing)) return usage(argv[0]);

  try {
    if (!opt.log_level.empty())
      set_log_level(parse_log_level(opt.log_level));
    if (!opt.trace_out.empty() || opt.trace)
      obs::Tracer::global().set_enabled(true);
    const bool profiling = opt.profile || !opt.profile_out.empty();
    if (profiling)
      obs::Profiler::global().start(
          obs::Profiler::Options{opt.profile_interval_ms});

    if (opt.explain) {
      const int rc = run_explain(opt, pricing);
      if (!opt.metrics_out.empty())
        write_metrics_report(opt.metrics_out, "explain");
      if (!opt.trace_out.empty()) write_trace(opt.trace_out);
      if (profiling) obs::Profiler::global().stop();
      if (!opt.profile_out.empty()) write_profile(opt.profile_out);
      return rc;
    }

    if (!opt.snapshot_action.empty()) return run_snapshot(opt);

    if (opt.serve) {
      // Boot from the journal when --world-dir holds an intact
      // snapshot: the text build (city + scene + shading) is skipped
      // entirely — that is the cold-start win being measured by
      // bench/perf_coldstart.
      core::WorldPtr world;
      if (!opt.world_dir.empty()) {
        const core::LoadLatestResult latest =
            core::WorldStore::load_latest(opt.world_dir);
        for (const std::string& error : latest.errors)
          std::fprintf(stderr, "warning: %s\n", error.c_str());
        if (latest.world) {
          world = latest.world;
          std::printf("restored world v%llu from %s\n",
                      static_cast<unsigned long long>(world->version()),
                      latest.loaded_from.c_str());
        }
      }
      if (!world) world = build_city_world(opt);
      const int rc = run_serve(opt, pricing, std::move(world));
      if (!opt.metrics_out.empty())
        write_metrics_report(opt.metrics_out, "serve");
      if (!opt.trace_out.empty()) write_trace(opt.trace_out);
      if (profiling) obs::Profiler::global().stop();
      if (!opt.profile_out.empty()) write_profile(opt.profile_out);
      return rc;
    }

    roadnet::GridCityOptions city_options;
    city_options.rows = opt.rows;
    city_options.cols = opt.cols;
    city_options.seed = opt.seed;
    const roadnet::GridCity city(city_options);
    const geo::LocalProjection projection(city_options.origin);
    const shadow::Scene scene =
        generate_scene(city.graph(), projection, shadow::SceneGenOptions{});
    const core::WorldPtr world = make_world(city.graph(), scene, opt);

    if (opt.batch) {
      const int rc = run_batch(opt, pricing, world, city);
      if (!opt.metrics_out.empty())
        write_metrics_report(opt.metrics_out, "batch");
      if (!opt.trace_out.empty()) write_trace(opt.trace_out);
      if (profiling) {
        obs::Profiler::global().stop();
        print_profile_summary();
      }
      if (!opt.profile_out.empty()) write_profile(opt.profile_out);
      return rc;
    }

    const std::unique_ptr<obs::QueryLog> query_log = open_query_log(opt);
    core::PlannerOptions planner_options;
    planner_options.mlc = mlc_options(opt, pricing);
    if (query_log) planner_options.query_log = query_log.get();
    const core::SunChasePlanner planner(world, planner_options);

    const TimeOfDay departure = TimeOfDay::parse(opt.time);
    const core::PlanResult plan =
        planner.plan(city.node_at(opt.from_row, opt.from_col),
                     city.node_at(opt.to_row, opt.to_col), departure);

    std::printf("%s, departing %s, C = %.0f W (world v%llu) — "
                "%zu Pareto routes\n",
                planner.vehicle().name().c_str(),
                departure.to_string().c_str(), opt.panel_w,
                static_cast<unsigned long long>(world->version()),
                plan.pareto_route_count);
    std::printf("%-14s %8s %8s %8s %8s %10s\n", "route", "TL (m)", "TT (s)",
                "EI (Wh)", "EC (Wh)", "extra(Wh)");
    for (const auto& cand : plan.candidates) {
      std::printf("%-14s %8.0f %8.1f %8.2f %8.2f %+10.2f\n",
                  cand.is_shortest_time ? "shortest-time" : "better-solar",
                  cand.metrics.total_length.value(),
                  cand.metrics.travel_time.value(),
                  cand.metrics.energy_in.value(),
                  cand.metrics.energy_out.value(),
                  cand.is_shortest_time ? 0.0 : cand.extra_energy.value());
    }

    if (!opt.geojson_path.empty()) {
      std::ofstream(opt.geojson_path)
          << exporter::geojson_plan(city.graph(), plan);
      std::printf("wrote %s\n", opt.geojson_path.c_str());
    }
    if (!opt.graph_out.empty()) {
      roadnet::write_graph_file(opt.graph_out, city.graph());
      std::printf("wrote %s\n", opt.graph_out.c_str());
    }
    if (!opt.scene_out.empty()) {
      shadow::write_scene_file(opt.scene_out, scene);
      std::printf("wrote %s\n", opt.scene_out.c_str());
    }
    if (!opt.metrics_out.empty()) write_metrics_report(opt.metrics_out, "plan");
    if (!opt.trace_out.empty()) write_trace(opt.trace_out);
    if (profiling) obs::Profiler::global().stop();
    if (!opt.profile_out.empty()) write_profile(opt.profile_out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
