#include "driver.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "checks.h"
#include "sunchase/common/thread_pool.h"
#include "sunchase/core/batch_planner.h"
#include "sunchase/core/dijkstra.h"
#include "sunchase/core/kmeans.h"
#include "sunchase/core/mlc.h"
#include "sunchase/core/planner.h"
#include "sunchase/core/selection.h"
#include "sunchase/core/slot_cost_cache.h"
#include "sunchase/core/world_store.h"
#include "sunchase/crowd/world_fold.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/serve/client.h"
#include "sunchase/serve/server.h"
#include "sunchase/serve/service.h"

namespace sunchase::routebench {

namespace {

/// Set-ups per run, setup_s being their median: at least kMinSetups,
/// more while the set-ups so far took under kSetupSeconds in total (a
/// small world builds in a tenth of a second, the metro world in four).
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupSeconds = 2.0;
/// Answered /plan ids replayed through GET /explain after the window.
constexpr std::size_t kExplainSample = 8;
/// Ids of the bundle before each fleet publish replayed afterwards.
constexpr std::size_t kExplainsPerPublish = 2;
/// Traced /batch and /world/publish probes on the plan workloads, whose
/// own traffic has neither: at least kMinProbes of each, more while
/// kProbeSeconds last, at most kMaxProbes.
constexpr std::size_t kMinProbes = 2;
constexpr std::size_t kMaxProbes = 32;
constexpr double kProbeSeconds = 1.0;
/// The slot whose cold column fill is timed after each traced publish.
constexpr int kColdFillSlot = 40;  // 10:00
constexpr double kClientTimeoutSeconds = 60.0;
constexpr const char* kHost = "127.0.0.1";
/// Requests the traced half decomposes; later ones are sent untraced,
/// which bounds the span log (2048 /plan requests write about 4 MB).
constexpr std::int64_t kMaxTracedRequests = 2048;
/// Failed checks described on stderr; the rest are only counted.
constexpr std::uint64_t kPrintedFailures = 20;

/// The route server as `sunchase_cli serve` wires it with its default
/// options (slot pricing, time budget 1.5, 4 HTTP workers, 2 workers
/// per /batch), on an ephemeral loopback port.
struct Stack {
  explicit Stack(core::WorldPtr world)
      : store(std::move(world)), service(store), server(service) {
    server.start();
  }

  core::WorldStore store;
  serve::RouteService service;
  serve::HttpServer server;
};

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The bytes HttpClient puts on the wire for a POST.
std::string request_bytes(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nhost: " + kHost +
         "\r\ncontent-length: " + std::to_string(body.size()) + "\r\n\r\n" +
         body;
}

/// Attempted and failed operations. Every request sent, and every direct
/// call whose result is checked, is one operation.
class Ops {
 public:
  /// Counts one operation; an empty `error` means it passed.
  bool record(const std::string& error, std::string_view what) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (error.empty()) return true;
    if (failed_.fetch_add(1, std::memory_order_relaxed) < kPrintedFailures) {
      const std::lock_guard<std::mutex> lock(print_mutex_);
      std::fprintf(stderr, "check failed: %.*s: %s\n",
                   static_cast<int>(what.size()), what.data(), error.c_str());
    }
    return false;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_.load(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex print_mutex_;
};

/// Hands out request tickets in whole periods, at least one: at a period
/// boundary it stops once less than half the last period's duration is
/// left before the deadline, so a phase ends as close to its deadline as
/// whole periods allow. With the trip (bundle) count as the period every
/// trip (bundle) is sent equally often.
class PassTickets {
 public:
  PassTickets(std::size_t period, Clock::time_point deadline)
      : period_(period), deadline_(deadline) {}

  std::optional<std::size_t> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (done_) return std::nullopt;
    if (next_ % period_ == 0) {
      const Clock::time_point now = Clock::now();
      if (next_ > 0 && now + (now - period_start_) / 2 >= deadline_) {
        done_ = true;
        return std::nullopt;
      }
      period_start_ = now;
    }
    return next_++;
  }

  /// Tickets handed out so far.
  [[nodiscard]] std::size_t issued() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return next_;
  }

 private:
  const std::size_t period_;
  const Clock::time_point deadline_;
  std::mutex mutex_;
  std::size_t next_ = 0;             ///< guarded by mutex_
  Clock::time_point period_start_;   ///< guarded by mutex_
  bool done_ = false;                ///< guarded by mutex_
};

struct Timed {
  Clock::time_point start;
  Clock::time_point end;
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(end - start).count();
  }
};

/// A stretch of wall time read at the reference clock: its duration
/// times the mean of the probe's factor at its two ends.
class ReferenceTimer {
 public:
  explicit ReferenceTimer(const ClockProbe* probe)
      : probe_(probe), start_(Clock::now()), start_factor_(factor()) {}

  [[nodiscard]] double factor() const {
    return probe_ == nullptr ? 1.0 : probe_->factor();
  }
  /// Seconds since construction at the reference clock.
  [[nodiscard]] double seconds() const {
    return seconds_since(start_) * (start_factor_ + factor()) / 2.0;
  }
  /// Process CPU seconds since construction, the probe's own taken out,
  /// at the reference clock.
  [[nodiscard]] double cpu_seconds() const {
    return (process_cpu_seconds() - probe_cpu() - start_cpu_) *
           (start_factor_ + factor()) / 2.0;
  }

 private:
  [[nodiscard]] double probe_cpu() const {
    return probe_ == nullptr ? 0.0 : probe_->cpu_seconds();
  }

  const ClockProbe* probe_;
  const Clock::time_point start_;
  const double start_factor_;
  const double start_cpu_ = process_cpu_seconds() - probe_cpu();
};

/// One kind of request across the window: its latencies, the time its
/// phases took and, for the workload's own traffic, the CPU they used,
/// all at the reference clock (ClockProbe) unless `probe` is null.
struct Stream {
  explicit Stream(const ClockProbe* clock_probe) : probe(clock_probe) {}

  /// A request ended; `t` is empty when it failed.
  void record(const std::optional<Timed>& t, std::size_t route_queries) {
    if (!t) return;
    latency_ms.add(t->ms() * (probe == nullptr ? 1.0 : probe->factor()));
    queries += route_queries;
  }

  /// One phase of this stream's traffic ended; `own` when it was the
  /// workload's own traffic, whose CPU counts.
  void add_phase(const ReferenceTimer& phase, bool own) {
    busy_s += phase.seconds();
    if (own) cpu_s += phase.cpu_seconds();
  }

  [[nodiscard]] double queries_per_s() const {
    return busy_s > 0.0 ? static_cast<double>(queries.load()) / busy_s : 0.0;
  }
  [[nodiscard]] double cpu_ms_per_query() const {
    return queries > 0 ? cpu_s * 1e3 / static_cast<double>(queries.load())
                       : 0.0;
  }

  const ClockProbe* probe;
  LatencyHistogram latency_ms;
  std::atomic<std::size_t> queries{0};  ///< route queries answered
  std::size_t next_index = 0;  ///< index of the stream's next request
  double busy_s = 0.0;         ///< written by the thread running phases
  double cpu_s = 0.0;          ///< written by the thread running phases
};

/// Everything one run shares across its connection threads.
struct Run {
  explicit Run(const RunOptions& run_options)
      : options(run_options), spec(*run_options.workload) {}

  [[nodiscard]] std::uint16_t port() const { return stack->server.port(); }
  [[nodiscard]] std::size_t bundles() const {
    return trips.size() / kBundleSize;
  }
  [[nodiscard]] const core::MlcOptions& mlc() const {
    return stack->service.options().mlc;
  }
  [[nodiscard]] std::uint64_t world_version() const {
    return 1 + publishes_answered.load();
  }
  /// How far the served pricing lets the shortest-time candidate drift
  /// above core::shortest_time_path.
  [[nodiscard]] double max_excess() const {
    return mlc().pricing == core::PricingMode::SlotQuantized
               ? kSlotPricingExcess
               : kExactPricingExcess;
  }

  /// The plan workloads publish only between their /plan phases, so
  /// every answer to one trip on one world version must carry the first
  /// such answer's candidates.
  std::string check_repeat(std::size_t trip, std::uint64_t version,
                           const std::string& fingerprint) {
    const std::lock_guard<std::mutex> lock(mutex);
    std::string& first = fingerprints[{trip, version}];
    if (first.empty()) first = fingerprint;
    return first == fingerprint ? std::string()
                                : "trip " + std::to_string(trip) +
                                      " answered with different candidates "
                                      "on world v" +
                                      std::to_string(version);
  }

  /// Whether the traced window may decompose one more request.
  bool take_trace_slot() { return traced_left.fetch_sub(1) > 0; }

  void remember_answer(std::uint64_t id, std::uint64_t version) {
    const std::lock_guard<std::mutex> lock(mutex);
    recent_answers.emplace_back(id, version);
    if (recent_answers.size() > kExplainSample) recent_answers.pop_front();
  }

  const RunOptions& options;
  const WorkloadSpec& spec;
  ClockProbe probe;
  std::unique_ptr<Stack> stack;
  std::vector<Trip> trips;
  std::vector<std::string> plan_bodies;
  std::vector<std::string> batch_bodies;  ///< bundle b: trips [8b, 8b + 8)
  std::vector<PublishInput> publishes;
  Ops ops;
  std::atomic<std::uint64_t> publishes_answered{0};
  std::unique_ptr<SpanLog> spans;  ///< null unless tracing
  std::atomic<std::int64_t> traced_left{kMaxTracedRequests};

  std::mutex mutex;                       ///< guards the members below
  /// (trip, world version) -> candidates of the first answer
  std::map<std::pair<std::size_t, std::uint64_t>, std::string> fingerprints;
  /// (query id, world version) of the latest /plan answers
  std::deque<std::pair<std::uint64_t, std::uint64_t>> recent_answers;
  std::map<std::size_t, core::MlcStats> search_stats;  ///< per traced trip
  std::vector<double> batch_overhead_us;
};

/// Sends one request; a transport error is a failed operation.
std::optional<serve::HttpResponse> send(Run& run, serve::HttpClient& client,
                                        const char* method,
                                        const std::string& target,
                                        const std::string& body, Timed& t) {
  t.start = Clock::now();
  try {
    serve::HttpResponse response = client.request(method, target, body);
    t.end = Clock::now();
    return response;
  } catch (const std::exception& e) {
    t.end = Clock::now();
    run.ops.record(std::string("request failed: ") + e.what(), target);
    return std::nullopt;
  }
}

bool post_plan(Run& run, serve::HttpClient& client, std::size_t trip,
               PlanAnswer& answer, Timed& t) {
  const auto response =
      send(run, client, "POST", "/plan", run.plan_bodies[trip], t);
  if (!response) return false;
  std::string error = check_plan(*response, run.trips[trip].shortest_s,
                                 run.max_excess(), answer);
  if (error.empty() && run.spec.traffic == Traffic::Plan)
    error = run.check_repeat(trip, answer.world_version, answer.fingerprint);
  if (!run.ops.record(error, "POST /plan")) return false;
  run.remember_answer(answer.query_id, answer.world_version);
  return true;
}

bool post_batch(Run& run, serve::HttpClient& client, std::size_t bundle,
                BatchAnswer& answer, Timed& t) {
  const auto response =
      send(run, client, "POST", "/batch", run.batch_bodies[bundle], t);
  if (!response) return false;
  std::vector<double> shortest;
  for (std::size_t i = 0; i < kBundleSize; ++i)
    shortest.push_back(run.trips[bundle * kBundleSize + i].shortest_s);
  return run.ops.record(
      check_batch(*response, shortest, run.max_excess(), answer),
      "POST /batch");
}

/// Publishes are sent by one thread at a time, so the version each one
/// must produce follows from the count of earlier ones.
bool post_publish(Run& run, serve::HttpClient& client, std::size_t set,
                  Timed& t) {
  const auto response = send(run, client, "POST", "/world/publish",
                             run.publishes[set].body, t);
  if (!response) return false;
  if (!run.ops.record(check_world_version(*response, run.world_version() + 1),
                      "POST /world/publish"))
    return false;
  run.publishes_answered.fetch_add(1);
  return true;
}

void explain(Run& run, serve::HttpClient& client, std::uint64_t id,
             std::uint64_t world_version) {
  Timed t;
  const auto response =
      send(run, client, "GET", "/explain/" + std::to_string(id), "", t);
  if (response)
    run.ops.record(check_explain(*response, world_version), "GET /explain");
}

/// Runs `body` counting an escaped exception as a failed operation, so
/// a connection thread never terminates the process.
void guarded(Run& run, const char* what, const std::function<void()>& body) {
  try {
    body();
  } catch (const std::exception& e) {
    run.ops.record(std::string("unexpected error: ") + e.what(), what);
  }
}

void run_concurrently(const std::function<void()>& a,
                      const std::function<void()>& b) {
  std::thread other(a);
  b();
  other.join();
}

// ---------------------------------------------------------------------------
// Traced requests: the round trip, then each layer's public entry point
// called directly on the same input, one span per call.

std::optional<Timed> traced_plan(Run& run, serve::HttpClient& client,
                                 std::size_t index) {
  SpanLog& spans = *run.spans;
  const Trip& trip = run.trips[index];
  const std::string& body = run.plan_bodies[index];
  const std::uint64_t request = spans.next_request();
  // Pinned before sending: on fleet_refresh a publish can land between
  // the answer and the direct calls.
  const core::WorldPtr world = run.stack->store.current();

  PlanAnswer answer;
  Timed rt;
  if (!post_plan(run, client, index, answer, rt)) return std::nullopt;
  const std::uint64_t root =
      spans.record("serve.roundtrip", rt.start, rt.end, 0, request);

  // The listener's own work per request: parse the bytes, then look up
  // the labeled request counter as HttpServer::process does.
  const std::string wire = request_bytes("/plan", body);
  serve::HttpParser parser;
  auto start = Clock::now();
  parser.feed(wire);
  spans.record("serve.http_parse", start, Clock::now(), root, request);
  if (!run.ops.record(parser.state() == serve::HttpParser::State::Complete
                          ? ""
                          : "request bytes did not parse",
                      "HttpParser::feed"))
    return rt;
  start = Clock::now();
  {
    const obs::Labels labels{
        {"endpoint", serve::RouteService::route_label("/plan")},
        {"status", "200"}};
    obs::Registry::global().counter("serve.requests", labels);
  }
  spans.record("obs.registry_lookup", start, Clock::now(), root, request);

  start = Clock::now();
  const serve::HttpResponse handled = run.stack->service.handle(parser.message());
  const std::uint64_t handle =
      spans.record("serve.handle", start, Clock::now(), root, request);
  run.ops.record(check_status(handled), "RouteService::handle /plan");

  start = Clock::now();
  (void)serve::JsonValue::parse(body);
  spans.record("serve.json_decode", start, Clock::now(), handle, request);

  core::PlannerOptions planner_options;
  planner_options.mlc = run.mlc();
  planner_options.selection = run.stack->service.options().selection;
  const core::SunChasePlanner planner(world, planner_options);
  start = Clock::now();
  const core::PlanResult plan =
      planner.plan(trip.origin, trip.destination, trip.departure);
  const std::uint64_t plan_span =
      spans.record("core.plan", start, Clock::now(), handle, request);
  if (answer.world_version == world->version())
    run.ops.record(check_same_candidates(plan, answer.candidates),
                   "SunChasePlanner::plan");

  const core::MultiLabelCorrecting mlc(world, run.mlc());
  start = Clock::now();
  const core::MlcResult search =
      mlc.search(trip.origin, trip.destination, trip.departure);
  const std::uint64_t search_span =
      spans.record("core.mlc_search", start, Clock::now(), plan_span, request);
  {
    const std::lock_guard<std::mutex> lock(run.mutex);
    run.search_stats.try_emplace(index, search.stats);
  }
  start = Clock::now();
  (void)core::shortest_time_path(world, trip.origin, trip.destination,
                                 trip.departure);
  spans.record("core.shortest_time", start, Clock::now(), search_span,
               request);
  start = Clock::now();
  (void)core::detail::time_lower_bounds(world->graph(), world->traffic(),
                                        trip.destination);
  spans.record("core.lower_bounds", start, Clock::now(), search_span, request);

  start = Clock::now();
  (void)core::select_representative_routes(search.routes, world,
                                           trip.departure,
                                           planner_options.selection,
                                           planner_options.mlc.vehicle);
  const std::uint64_t select_span =
      spans.record("core.select", start, Clock::now(), plan_span, request);
  std::vector<core::LabelVector> labels;
  for (const core::ParetoRoute& route : search.routes)
    labels.push_back({route.cost.travel_time.value(),
                      route.cost.shaded_time.value(),
                      route.cost.energy_out.value()});
  const std::vector<core::LabelVector> normalized =
      core::normalize_dimensions(std::move(labels));
  start = Clock::now();
  (void)core::bisecting_kmeans(normalized, planner_options.selection.clustering);
  spans.record("core.kmeans", start, Clock::now(), select_span, request);
  return rt;
}

std::optional<Timed> traced_batch(Run& run, serve::HttpClient& client,
                                  std::size_t bundle, BatchAnswer& answer) {
  SpanLog& spans = *run.spans;
  const std::uint64_t request = spans.next_request();
  Timed rt;
  if (!post_batch(run, client, bundle, answer, rt)) return std::nullopt;
  const std::uint64_t root =
      spans.record("serve.batch_roundtrip", rt.start, rt.end, 0, request);

  serve::HttpParser parser;
  parser.feed(request_bytes("/batch", run.batch_bodies[bundle]));
  auto start = Clock::now();
  const serve::HttpResponse handled = run.stack->service.handle(parser.message());
  const std::uint64_t handle =
      spans.record("serve.batch_handle", start, Clock::now(), root, request);
  run.ops.record(check_status(handled), "RouteService::handle /batch");

  core::BatchPlannerOptions options;
  options.workers = run.stack->service.options().batch_workers;
  options.mlc = run.mlc();
  options.run_selection = true;
  options.selection = run.stack->service.options().selection;
  std::vector<core::BatchQuery> queries;
  for (std::size_t i = 0; i < kBundleSize; ++i) {
    const Trip& trip = run.trips[bundle * kBundleSize + i];
    queries.push_back({trip.origin, trip.destination, trip.departure});
  }
  const core::BatchPlanner planner(run.stack->store, options);
  start = Clock::now();
  const core::BatchResult result = planner.plan_all(queries);
  const std::uint64_t plan_all =
      spans.record("core.batch_plan_all", start, Clock::now(), handle, request);
  run.ops.record(result.stats.failed == 0 ? "" : "a query failed",
                 "BatchPlanner::plan_all");
  {
    const core::BatchStats& stats = result.stats;
    const std::lock_guard<std::mutex> lock(run.mutex);
    run.batch_overhead_us.push_back(
        (stats.wall_seconds -
         stats.cpu_seconds / static_cast<double>(stats.workers)) *
        1e6);
  }
  start = Clock::now();
  { const common::ThreadPool pool(options.workers); }
  spans.record("common.thread_pool_spawn", start, Clock::now(), plan_all,
               request);
  return rt;
}

std::optional<Timed> traced_publish(Run& run, serve::HttpClient& client,
                                    std::size_t set) {
  SpanLog& spans = *run.spans;
  const std::uint64_t request = spans.next_request();
  // The world the server folds onto: only this thread publishes.
  const core::WorldPtr base = run.stack->store.current();
  crowd::CrowdSolarMap crowd_map(
      base->graph().edge_count(),
      [](roadnet::EdgeId, TimeOfDay) { return 0.0; },
      crowd::CrowdSolarMap::Options{});
  for (const crowd::Observation& o : run.publishes[set].observations)
    crowd_map.report(o);

  Timed rt;
  if (!post_publish(run, client, set, rt)) return std::nullopt;
  const std::uint64_t root =
      spans.record("serve.publish_roundtrip", rt.start, rt.end, 0, request);

  auto start = Clock::now();
  core::WorldInit next = crowd::fold_observations(*base, crowd_map);
  spans.record("crowd.fold", start, Clock::now(), root, request);
  // A store of its own, so the server's version count is untouched.
  core::WorldStore side(base);
  start = Clock::now();
  const core::WorldPtr published = side.publish(std::move(next));
  spans.record("core.world_publish", start, Clock::now(), root, request);
  // The fill the first query after a refresh pays: not part of the
  // publish round trip, so a root of its own.
  start = Clock::now();
  (void)published->slot_cache().at(0, kColdFillSlot);
  spans.record("core.slot_cache.cold_fill", start, Clock::now(), 0, request);
  return rt;
}

// ---------------------------------------------------------------------------
// Phases.

/// Whole passes over the trip list as /plan on two connections until
/// `deadline` (at least one), recorded into `plan`.
void plan_passes(Run& run, Stream& plan, Clock::time_point deadline,
                 bool traced) {
  const std::size_t n = run.trips.size();
  PassTickets tickets(n, deadline);
  const ReferenceTimer phase(plan.probe);
  const auto connection = [&] {
    guarded(run, "/plan connection", [&] {
      serve::HttpClient client(kHost, run.port(), kClientTimeoutSeconds);
      while (const auto ticket = tickets.take()) {
        const std::size_t trip = *ticket % n;
        std::optional<Timed> t;
        guarded(run, "/plan request", [&] {
          if (traced && run.take_trace_slot()) {
            t = traced_plan(run, client, trip);
          } else {
            PlanAnswer answer;
            Timed timed;
            if (post_plan(run, client, trip, answer, timed)) t = timed;
          }
        });
        plan.record(t, 1);
      }
    });
  };
  run_concurrently(connection, connection);
  plan.add_phase(phase, true);
}

/// /batch bundles back to back on one connection; a second connection
/// posts /world/publish after every kBundlesPerPublish-th completed
/// bundle and then replays ids of the bundle before it through
/// GET /explain on their pinned world. Runs whole rounds over the
/// bundles.
void fleet_cycles(Run& run, Stream& batch, Stream& publish,
                  Clock::time_point deadline, bool traced) {
  const std::size_t bundles = run.bundles();
  // Whole rounds over the bundles, so every bundle is sent equally
  // often; a round is a whole number of publish cycles.
  PassTickets tickets(bundles, deadline);
  std::mutex mutex;
  std::condition_variable cycle_done;
  std::size_t completed = 0;   ///< guarded by mutex
  bool reader_done = false;    ///< guarded by mutex
  std::map<std::size_t, BatchAnswer> cycle_last;  ///< guarded by mutex
  const ReferenceTimer phase(batch.probe);

  const auto reader = [&] {
    guarded(run, "/batch connection", [&] {
      serve::HttpClient client(kHost, run.port(), kClientTimeoutSeconds);
      while (const auto ticket = tickets.take()) {
        const std::size_t bundle = *ticket % bundles;
        BatchAnswer answer;
        std::optional<Timed> t;
        guarded(run, "/batch request", [&] {
          if (traced && run.take_trace_slot()) {
            t = traced_batch(run, client, bundle, answer);
            // The plan layers, timed on the fleet's changing world.
            (void)traced_plan(run, client, bundle * kBundleSize);
          } else {
            Timed timed;
            if (post_batch(run, client, bundle, answer, timed)) t = timed;
          }
        });
        batch.record(t, kBundleSize);
        {
          const std::lock_guard<std::mutex> lock(mutex);
          ++completed;
          if (completed % kBundlesPerPublish == 0)
            cycle_last[completed] = std::move(answer);
        }
        cycle_done.notify_all();
      }
    });
    const std::lock_guard<std::mutex> lock(mutex);
    reader_done = true;
    cycle_done.notify_all();
  };

  const auto writer = [&] {
    guarded(run, "/world/publish connection", [&] {
      serve::HttpClient client(kHost, run.port(), kClientTimeoutSeconds);
      for (std::size_t cycle = 1;; ++cycle) {
        BatchAnswer before;
        {
          std::unique_lock<std::mutex> lock(mutex);
          cycle_done.wait(lock, [&] {
            return completed >= cycle * kBundlesPerPublish || reader_done;
          });
          if (completed < cycle * kBundlesPerPublish) return;
          before = std::move(cycle_last[cycle * kBundlesPerPublish]);
          cycle_last.erase(cycle * kBundlesPerPublish);
        }
        const std::size_t set = run.publishes_answered.load() % kPublishSets;
        std::optional<Timed> t;
        guarded(run, "/world/publish request", [&] {
          if (traced) {
            t = traced_publish(run, client, set);
          } else {
            Timed timed;
            if (post_publish(run, client, set, timed)) t = timed;
          }
        });
        publish.record(t, 0);
        for (std::size_t i = 0;
             i < std::min(kExplainsPerPublish, before.query_ids.size()); ++i)
          explain(run, client, before.query_ids[i], before.world_versions[i]);
      }
    });
  };

  run_concurrently(reader, writer);
  batch.add_phase(phase, true);
}

/// One pass over the bundles, untimed: warms code, allocator and the
/// first world's slot cache.
void fleet_warmup(Run& run) {
  serve::HttpClient client(kHost, run.port(), kClientTimeoutSeconds);
  for (std::size_t b = 0; b < run.bundles(); ++b) {
    BatchAnswer answer;
    Timed t;
    guarded(run, "/batch warm-up", [&] { post_batch(run, client, b, answer, t); });
  }
}

/// Side traffic: sequential requests on one connection between the
/// slices of the window, for the end-to-end metrics the workload's own
/// traffic does not produce, recorded into `stream`. Sends at least
/// `min_requests`, then stops at a multiple of `period` as PassTickets
/// stops at a period boundary. `send_one(j)` sends the stream's request
/// j (j counts on across phases, so the requests keep rotating through
/// the trips or bundles) and returns the route queries it answered, or
/// nothing when it failed.
void side_traffic(Run& run, Stream& stream, const char* what,
                  std::size_t min_requests, std::size_t period,
                  Clock::time_point deadline,
                  const std::function<std::optional<std::size_t>(
                      serve::HttpClient&, std::size_t, Timed&)>& send_one) {
  serve::HttpClient client(kHost, run.port(), kClientTimeoutSeconds);
  const ReferenceTimer phase(stream.probe);
  Clock::time_point period_start = Clock::now();
  for (std::size_t sent = 0;; ++sent) {
    if (sent >= min_requests && stream.next_index % period == 0) {
      const Clock::time_point now = Clock::now();
      if (now + (now - period_start) / 2 >= deadline) break;
      period_start = now;
    }
    std::optional<Timed> t;
    std::size_t queries = 0;
    guarded(run, what, [&] {
      Timed timed;
      if (const auto answered = send_one(client, stream.next_index, timed)) {
        t = timed;
        queries = *answered;
      }
    });
    ++stream.next_index;
    stream.record(t, queries);
  }
  stream.add_phase(phase, false);
}

/// Side traffic runs whole quarters of a round over the bundles (trips)
/// per slice and is topped up to a whole round after the slices, so a
/// run sends every bundle (trip) equally often; on metro_plan a round
/// takes about as long as the side traffic's share of the window.
std::size_t quarter_round(std::size_t round) {
  return std::max<std::size_t>(1, round / kSlices);
}

void side_batches(Run& run, Stream& batch, std::size_t min_requests,
                  std::size_t period, Clock::time_point deadline) {
  side_traffic(run, batch, "/batch side traffic", min_requests, period,
               deadline,
               [&](serve::HttpClient& client, std::size_t j,
                   Timed& t) -> std::optional<std::size_t> {
                 BatchAnswer answer;
                 if (!post_batch(run, client, j % run.bundles(), answer, t))
                   return std::nullopt;
                 return kBundleSize;
               });
}

/// kPlanWorkloadPublishes /world/publish calls, kPublishesPerConnection
/// on each fresh connection, each after a pause of kPublishPause and a
/// checked GET /healthz. Back to back, publishes ran at one of two or
/// three speeds in stretches of tens of milliseconds (1.7 or 3.2 ms on
/// metro_plan), a different mix each run; spread out, each publish
/// draws its speed afresh, so the mix a run sees is steady.
void side_publishes(Run& run, Stream& publish) {
  for (std::size_t done = 0; done < kPlanWorkloadPublishes;
       done += kPublishesPerConnection)
    side_traffic(run, publish, "/world/publish side traffic",
                 kPublishesPerConnection, 1, Clock::now(),
                 [&](serve::HttpClient& client, std::size_t,
                     Timed& t) -> std::optional<std::size_t> {
                   std::this_thread::sleep_for(kPublishPause);
                   // Untimed, and a check: the version so far.
                   Timed health;
                   if (const auto response =
                           send(run, client, "GET", "/healthz", "", health))
                     run.ops.record(
                         check_world_version(*response, run.world_version()),
                         "GET /healthz");
                   const std::size_t set =
                       run.publishes_answered.load() % kPublishSets;
                   if (!post_publish(run, client, set, t)) return std::nullopt;
                   return 0;
                 });
}

/// /plan on the fleet's latest world: one untimed pass over the trips
/// fills the slot-cache columns the publishes emptied (their cost is
/// the fleet traffic's to show), then timed requests as side_traffic
/// sends them.
void side_plans(Run& run, Stream& plan, std::size_t min_requests,
                std::size_t period, Clock::time_point deadline) {
  {
    serve::HttpClient client(kHost, run.port(), kClientTimeoutSeconds);
    for (std::size_t trip = 0; trip < run.trips.size(); ++trip) {
      PlanAnswer answer;
      Timed t;
      guarded(run, "/plan warm-up",
              [&] { post_plan(run, client, trip, answer, t); });
    }
  }
  side_traffic(run, plan, "/plan side traffic", min_requests, period,
               deadline,
               [&](serve::HttpClient& client, std::size_t j,
                   Timed& t) -> std::optional<std::size_t> {
                 PlanAnswer answer;
                 if (!post_plan(run, client, j % run.trips.size(), answer, t))
                   return std::nullopt;
                 return 1;
               });
}

/// Replays the last answered /plan ids on the worlds that answered them.
void explain_recent(Run& run) {
  std::deque<std::pair<std::uint64_t, std::uint64_t>> answers;
  {
    const std::lock_guard<std::mutex> lock(run.mutex);
    answers = run.recent_answers;
  }
  serve::HttpClient client(kHost, run.port(), kClientTimeoutSeconds);
  for (const auto& [id, version] : answers) explain(run, client, id, version);
}

/// Under exact pricing candidates[0] must have core::shortest_time_path's
/// travel time to the digits the server renders: a few trips asked so.
void exact_pricing_probe(Run& run) {
  serve::HttpClient client(kHost, run.port(), kClientTimeoutSeconds);
  for (std::size_t trip = 0; trip < kExplainSample; ++trip) {
    Timed t;
    const auto response = send(run, client, "POST", "/plan",
                               plan_body(run.trips[trip], "exact"), t);
    PlanAnswer answer;
    if (response)
      run.ops.record(check_plan(*response, run.trips[trip].shortest_s,
                                kExactPricingExcess, answer),
                     "POST /plan (exact pricing)");
  }
}

/// After the window: the exact-pricing probe, and the final world
/// version must count exactly the publishes answered.
void final_checks(Run& run) {
  exact_pricing_probe(run);
  serve::HttpClient client(kHost, run.port(), kClientTimeoutSeconds);
  Timed t;
  if (const auto response = send(run, client, "GET", "/healthz", "", t))
    run.ops.record(check_world_version(*response, run.world_version()),
                   "GET /healthz");
}

/// Calls `traced(i)` for i = 0, 1, ... within the probe budget.
void probe(Run& run, const char* what,
           const std::function<void(std::size_t)>& traced) {
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i < kMinProbes ||
       (i < kMaxProbes && seconds_since(start) < kProbeSeconds);
       ++i)
    guarded(run, what, [&] { traced(i); });
}

double slot_cache_counter(const char* name) {
  return static_cast<double>(obs::Registry::global().counter(name).value());
}

// ---------------------------------------------------------------------------
// Reporting.

double quantile_or_zero(const std::vector<double>& samples, double q) {
  return samples.empty() ? 0.0 : quantile(samples, q);
}

void print_shares(const SpanTree& tree, const char* root, const char* title) {
  const std::vector<LayerShare> rows = tree.shares(root);
  if (rows.empty()) return;
  std::printf("\n%s: self time per layer, mean per request (n=%zu)\n", title,
              tree.durations_us(root).size());
  std::printf("  %-34s %12s %8s\n", "layer", "self us", "share");
  for (const LayerShare& row : rows)
    std::printf("  %*s%-*s %12.1f %7.1f%%\n", 2 * row.depth, "",
                34 - 2 * row.depth, row.name.c_str(), row.mean_self_us,
                100.0 * row.share);
}

std::vector<Metric> end_to_end_metrics(const std::vector<double>& setup_s,
                                       const Stream& own, const Stream& plan,
                                       const Stream& batch,
                                       const Stream& publish) {
  return {
      {"setup_s", median(setup_s), "s"},
      {"plan_p50_ms", plan.latency_ms.quantile_ms(0.5), "ms"},
      {"plan_p90_ms", plan.latency_ms.quantile_ms(0.9), "ms"},
      {"plan_qps", plan.queries_per_s(), "1/s"},
      {"batch_p50_ms", batch.latency_ms.quantile_ms(0.5), "ms"},
      {"batch_p90_ms", batch.latency_ms.quantile_ms(0.9), "ms"},
      {"batch_queries_per_s", batch.queries_per_s(), "1/s"},
      {"publish_trimmed_mean_ms", publish.latency_ms.trimmed_mean_ms(0.1),
       "ms"},
      {"cpu_ms_per_query", own.cpu_ms_per_query(), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const Run& run, const SpanTree& tree,
                                      double hit_ratio) {
  const auto med = [](const std::vector<double>& v) {
    return quantile_or_zero(v, 0.5);
  };
  // Search effort: mean per distinct trip, so it repeats exactly.
  double created = 0, dominated = 0, pops = 0, pruned = 0, pareto = 0;
  for (const auto& [trip, stats] : run.search_stats) {
    created += static_cast<double>(stats.labels_created);
    dominated += static_cast<double>(stats.labels_dominated);
    pops += static_cast<double>(stats.queue_pops);
    pruned += static_cast<double>(stats.labels_pruned_bound);
    pareto += static_cast<double>(stats.pareto_size);
  }
  const double trips = std::max<double>(1.0, static_cast<double>(run.search_stats.size()));
  std::vector<double> shading_s = tree.durations_us("shadow.shading_compute");
  for (double& v : shading_s) v *= 1e-6;
  return {
      {"serve.roundtrip_us", med(tree.durations_us("serve.roundtrip")), "us"},
      {"serve.listener_us",
       med(tree.minus_child_us("serve.roundtrip", "serve.handle")), "us"},
      {"serve.handle_self_us",
       med(tree.minus_child_us("serve.handle", "core.plan")), "us"},
      {"serve.http_parse_us", med(tree.durations_us("serve.http_parse")), "us"},
      {"serve.json_decode_us", med(tree.durations_us("serve.json_decode")),
       "us"},
      {"obs.registry_lookup_us", med(tree.durations_us("obs.registry_lookup")),
       "us"},
      {"core.plan_us", med(tree.durations_us("core.plan")), "us"},
      {"core.shortest_time_us", med(tree.durations_us("core.shortest_time")),
       "us"},
      {"core.lower_bounds_us", med(tree.durations_us("core.lower_bounds")),
       "us"},
      {"core.mlc_search_us", med(tree.durations_us("core.mlc_search")), "us"},
      {"core.mlc_self_us", med(tree.self_us("core.mlc_search")), "us"},
      {"core.mlc.labels_created", created / trips, "count"},
      {"core.mlc.labels_dominated", dominated / trips, "count"},
      {"core.mlc.queue_pops", pops / trips, "count"},
      {"core.mlc.labels_pruned_bound", pruned / trips, "count"},
      {"core.mlc.pareto_size", pareto / trips, "count"},
      {"core.mlc.pareto_per_label", created > 0 ? pareto / created : 0.0,
       "ratio"},
      {"core.select_us", med(tree.durations_us("core.select")), "us"},
      {"core.kmeans_us", med(tree.durations_us("core.kmeans")), "us"},
      {"core.batch_plan_all_us", med(tree.durations_us("core.batch_plan_all")),
       "us"},
      {"core.batch_overhead_us", med(run.batch_overhead_us), "us"},
      {"serve.batch_handle_self_us", med(tree.self_us("serve.batch_handle")),
       "us"},
      {"common.thread_pool_spawn_us",
       med(tree.durations_us("common.thread_pool_spawn")), "us"},
      {"crowd.fold_us", med(tree.durations_us("crowd.fold")), "us"},
      {"core.world_publish_us", med(tree.durations_us("core.world_publish")),
       "us"},
      {"core.slot_cache.cold_fill_us",
       med(tree.durations_us("core.slot_cache.cold_fill")), "us"},
      {"core.slot_cache.hit_ratio", hit_ratio, "ratio"},
      {"shadow.shading_compute_s", med(shading_s), "s"},
  };
}

/// Builds the world and starts the server several times (the earlier
/// stacks are freed first, so peak memory holds one world) and returns
/// each set-up's seconds at the reference clock.
std::vector<double> set_up(Run& run) {
  std::vector<double> setup_s;
  double total = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups && total < kSetupSeconds)) {
    run.stack.reset();
    const auto start = Clock::now();
    const ReferenceTimer setup(&run.probe);
    BuiltWorld built = build_world(run.spec);
    run.stack = std::make_unique<Stack>(std::move(built.world));
    setup_s.push_back(setup.seconds());
    total += seconds_since(start);
    if (run.spans)
      run.spans->record("shadow.shading_compute", built.shading_start,
                        built.shading_end, 0, run.spans->next_request());
  }
  return setup_s;
}

/// The seed's inputs, and the shortest times answers are checked against.
void make_inputs(Run& run) {
  const core::WorldPtr world = run.stack->store.current();
  const roadnet::GridCity city(city_options(run.spec));
  run.trips = make_trips(run.spec, city, run.options.seed);
  for (Trip& trip : run.trips) {
    const auto shortest = core::shortest_time_path(
        world, trip.origin, trip.destination, trip.departure);
    if (!shortest) throw std::runtime_error("a generated trip is unreachable");
    trip.shortest_s = shortest->travel_time.value();
    run.plan_bodies.push_back(plan_body(trip));
  }
  for (std::size_t b = 0; b < run.bundles(); ++b)
    run.batch_bodies.push_back(batch_body(run.trips, b * kBundleSize));
  run.publishes = make_publishes(world->graph().edge_count(), run.options.seed);
}

/// The timed window, cut into kSlices slices of the workload's own
/// traffic, each followed by its side traffic; the plan workloads then
/// publish, so their /plan and /batch traffic all meets the first world.
std::vector<Metric> timed_window(Run& run, const std::vector<double>& setup_s) {
  const bool plan_traffic = run.spec.traffic == Traffic::Plan;
  const Clock::time_point start = Clock::now();
  const auto at = [&](double slices) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           run.options.seconds * slices /
                           static_cast<double>(kSlices)));
  };
  Stream plan(&run.probe);
  Stream batch(&run.probe);
  Stream publish(&run.probe);
  for (std::size_t s = 0; s < kSlices; ++s) {
    const auto slice = static_cast<double>(s);
    if (plan_traffic) {
      plan_passes(run, plan, at(slice + 1.0 - kSideShare), false);
      // Before the side traffic's ledger entries evict these ids.
      explain_recent(run);
      side_batches(run, batch, 1, quarter_round(run.bundles()),
                   at(slice + 1.0));
    } else {
      fleet_cycles(run, batch, publish, at(slice + 1.0 - kSideShare), false);
      side_plans(run, plan, 1, quarter_round(run.trips.size()),
                 at(slice + 1.0));
    }
  }
  // Side traffic topped up to a whole round.
  if (plan_traffic) {
    side_batches(run, batch, 0, run.bundles(), Clock::now());
    side_publishes(run, publish);
  } else {
    side_plans(run, plan, 0, run.trips.size(), Clock::now());
  }
  final_checks(run);
  const Stream& own = plan_traffic ? plan : batch;
  std::printf("window %.1f s in %zu slices: %zu route queries answered by "
              "the workload's own traffic; requests timed: /plan %llu, "
              "/batch %llu, /world/publish %llu; host clock factor %.3f "
              "(timings are read at the reference clock, ClockProbe)\n",
              seconds_since(start), kSlices, own.queries.load(),
              static_cast<unsigned long long>(plan.latency_ms.count()),
              static_cast<unsigned long long>(batch.latency_ms.count()),
              static_cast<unsigned long long>(publish.latency_ms.count()),
              run.probe.factor());
  return end_to_end_metrics(setup_s, own, plan, batch, publish);
}

/// Half the window untraced, for the overhead comparison and the
/// slot-cache hit ratio of the traffic alone; then half traced, and on
/// the plan workloads traced /batch and /world/publish probes.
std::vector<Metric> traced_window(Run& run) {
  const bool plan_traffic = run.spec.traffic == Traffic::Plan;
  const auto half = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(run.options.seconds / 2.0));
  // Raw wall time, like the spans it is compared with.
  Stream plan(nullptr);
  Stream batch(nullptr);
  Stream publish(nullptr);
  const double hits = slot_cache_counter("slotcache.hits");
  const double misses = slot_cache_counter("slotcache.misses");
  if (plan_traffic)
    plan_passes(run, plan, Clock::now() + half, false);
  else
    fleet_cycles(run, batch, publish, Clock::now() + half, false);
  const double untraced_p50_ms = (plan_traffic ? plan : batch).latency_ms.quantile_ms(0.5);
  const double hit_delta = slot_cache_counter("slotcache.hits") - hits;
  const double miss_delta = slot_cache_counter("slotcache.misses") - misses;
  const double hit_ratio =
      hit_delta + miss_delta > 0 ? hit_delta / (hit_delta + miss_delta) : 0.0;

  if (plan_traffic) {
    plan_passes(run, plan, Clock::now() + half, true);
    explain_recent(run);
    serve::HttpClient client(kHost, run.port(), kClientTimeoutSeconds);
    probe(run, "traced /batch probe", [&](std::size_t i) {
      BatchAnswer answer;
      (void)traced_batch(run, client, i % run.bundles(), answer);
    });
    probe(run, "traced /world/publish probe", [&](std::size_t i) {
      (void)traced_publish(run, client, i % kPublishSets);
    });
  } else {
    fleet_cycles(run, batch, publish, Clock::now() + half, true);
  }
  final_checks(run);

  const SpanTree tree(run.spans->spans());
  print_shares(tree, "serve.roundtrip", "/plan round trip");
  print_shares(tree, "serve.batch_roundtrip", "/batch round trip");
  const char* root = plan_traffic ? "serve.roundtrip" : "serve.batch_roundtrip";
  const std::vector<double> traced_us = tree.durations_us(root);
  if (!traced_us.empty() && untraced_p50_ms > 0.0) {
    const double traced_ms = median(traced_us) / 1e3;
    std::printf("\ntracing overhead: %s p50 %.4f ms traced vs %.4f ms "
                "untraced (%+.1f%%)\n",
                plan_traffic ? "/plan" : "/batch", traced_ms, untraced_p50_ms,
                100.0 * (traced_ms / untraced_p50_ms - 1.0));
  }
  if (!run.options.spans_out.empty()) {
    run.spans->write_jsonl(run.options.spans_out);
    std::printf("spans written to %s\n", run.options.spans_out.c_str());
  }
  return per_layer_metrics(run, tree, hit_ratio);
}

/// Confines the calling thread, and so every thread it starts from now
/// on (the server's, the connections', the /batch pools', the clock
/// probe's), to the first CPU it may run on, and returns that CPU (-1
/// when the affinity cannot be read or set). A shared host takes its
/// vCPUs away from the guest now and then (steal), and a handoff to a
/// thread on a vCPU that is away waits for the host: across vCPUs the
/// same /batch p90 read 0.8 ms in one run and 3.2 ms in another on a
/// busy host, while on one CPU every handoff is a context switch and
/// the timings follow the CPU work.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (std::size_t cpu = 0; cpu < static_cast<std::size_t>(CPU_SETSIZE);
       ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? static_cast<int>(cpu)
                                                       : -1;
  }
  return -1;
}

}  // namespace

RunReport run_workload(const RunOptions& options) {
  const int cpu = pin_to_one_cpu();
  Run run(options);
  if (options.trace) run.spans = std::make_unique<SpanLog>();
  const std::vector<double> setup_s = set_up(run);
  const core::WorldPtr world = run.stack->store.current();
  std::printf("%s: %zu nodes, %zu edges, set-up %.3f s (median of %zu), "
              "port %u, all threads on CPU %d\n",
              run.spec.name, world->graph().node_count(),
              world->graph().edge_count(), median(setup_s), setup_s.size(),
              static_cast<unsigned>(run.port()), cpu);
  make_inputs(run);
  // Untimed warm-up pass: code, allocator and slot-cache columns.
  if (run.spec.traffic == Traffic::Plan) {
    Stream warmup(nullptr);
    plan_passes(run, warmup, Clock::now(), false);
  } else {
    fleet_warmup(run);
  }

  RunReport report;
  report.metrics = options.trace ? traced_window(run) : timed_window(run, setup_s);
  report.attempted = run.ops.attempted();
  report.failed = run.ops.failed();
  report.correct = report.failed == 0;
  return report;
}

}  // namespace sunchase::routebench
