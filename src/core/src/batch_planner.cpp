#include "sunchase/core/batch_planner.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "sunchase/common/error.h"
#include "sunchase/common/logging.h"
#include "sunchase/common/thread_pool.h"
#include "sunchase/core/metrics.h"
#include "sunchase/core/world.h"
#include "sunchase/core/world_store.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/obs/profiler.h"
#include "sunchase/obs/query_log.h"
#include "sunchase/obs/trace.h"

namespace sunchase::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void accumulate(MlcStats& into, const MlcStats& stats) {
  into.labels_created += stats.labels_created;
  into.labels_dominated += stats.labels_dominated;
  into.queue_pops += stats.queue_pops;
  into.pareto_size += stats.pareto_size;
  into.labels_pruned_bound += stats.labels_pruned_bound;
  into.labels_merged_epsilon += stats.labels_merged_epsilon;
  into.shortest_travel_time += stats.shortest_travel_time;
  into.search_seconds += stats.search_seconds;
  into.lower_bound_seconds += stats.lower_bound_seconds;
}

/// Starts a batch-mode QueryRecord for `query`; the worker (or the
/// collect loop, on failure) fills in the rest.
obs::QueryRecord start_record(const BatchQuery& query, std::size_t index,
                              PricingMode pricing) {
  obs::QueryRecord record;
  record.mode = "batch";
  record.index = static_cast<std::int64_t>(index);
  record.origin = query.origin;
  record.destination = query.destination;
  record.departure = query.departure.to_string();
  record.pricing = pricing_name(pricing);
  return record;
}

/// Registry handles for the batch-level metrics, resolved once.
struct BatchMetrics {
  obs::Histogram& queue_wait;  ///< submit-to-worker-start, per task
  obs::Histogram& run_time;    ///< in-worker per-query time
  obs::Gauge& throughput;      ///< last batch's queries/second
  obs::Counter& queries_ok;
  obs::Counter& queries_failed;

  static const BatchMetrics& get() {
    static BatchMetrics metrics{
        obs::Registry::global().histogram("batch.queue_wait_seconds"),
        obs::Registry::global().histogram("batch.run_seconds"),
        obs::Registry::global().gauge("batch.throughput_qps"),
        obs::Registry::global().counter("batch.queries_ok"),
        obs::Registry::global().counter("batch.queries_failed")};
    return metrics;
  }
};

/// What one worker task hands back through its future.
struct QueryOutcome {
  MlcResult result;
  std::optional<SelectionResult> selection;
  WorldPtr world;  ///< the snapshot the worker pinned for this query
  double cpu_seconds = 0.0;  ///< worker-thread CPU burned on this query
};

}  // namespace

BatchPlanner::BatchPlanner(WorldPtr world, BatchPlannerOptions options)
    : pinned_(std::move(world)), options_(options) {
  if (!pinned_) throw InvalidArgument("BatchPlanner: null world");
  // Rejects a bad vehicle index or MLC option set now, not per query.
  static_cast<void>(MultiLabelCorrecting(pinned_, options.mlc));
}

BatchPlanner::BatchPlanner(const WorldStore& store,
                           BatchPlannerOptions options)
    : store_(&store), options_(options) {
  static_cast<void>(MultiLabelCorrecting(store.current(), options.mlc));
}

WorldPtr BatchPlanner::world() const {
  return store_ != nullptr ? store_->current() : pinned_;
}

BatchResult BatchPlanner::plan_all(
    const std::vector<BatchQuery>& queries) const {
  BatchResult result;
  result.queries.resize(queries.size());
  result.stats.query_count = queries.size();
  if (queries.empty()) return result;

  const std::size_t workers = std::min(
      queries.size(), options_.workers > 0
                          ? options_.workers
                          : common::ThreadPool::default_worker_count());
  result.stats.workers = workers;

  const BatchMetrics& metrics = BatchMetrics::get();
  // Batch-local latency histogram (same class as the registry's): the
  // per-batch p50/p95/max must not mix with earlier batches.
  obs::Histogram latency(obs::latency_bounds());

  // Capture the submitting thread's trace context once: every worker
  // task reinstalls it, so batch.query (and the mlc.search / kmeans
  // spans beneath it) parent to the originating request even though
  // they run on pool threads with empty thread-local context.
  const obs::TraceContext trace_parent = obs::current_trace();
  const std::string trace_hex =
      trace_parent.valid() ? trace_parent.trace_id_hex() : std::string();
  // The profiler analog of the trace capture above: the submitting
  // thread's open span names (e.g. serve.request), re-installed on each
  // worker so its samples fold under the originating request instead of
  // appearing as a detached batch.query root.
  const std::vector<const char*> span_parent = obs::current_span_stack();

  const auto start = Clock::now();
  {
    common::ThreadPool pool(workers);
    std::vector<std::future<QueryOutcome>> futures;
    futures.reserve(queries.size());
    obs::QueryLog* const log = options_.query_log;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const BatchQuery query = queries[i];
      const auto submitted = Clock::now();
      futures.push_back(pool.submit([this, query, i, submitted, &metrics,
                                     &latency, log, trace_parent,
                                     &trace_hex, &span_parent] {
        const auto begun = Clock::now();
        metrics.queue_wait.observe(seconds_between(submitted, begun));
        const obs::TraceScope trace_scope(trace_parent);
        const obs::SpanStackScope stack_scope(span_parent);
        const obs::SpanTimer span("batch.query");
        const double cpu_started = obs::thread_cpu_seconds();
        // Pin this query's snapshot: in live mode each query loads the
        // store's current world when its worker picks it up, and prices
        // every edge against that one version end to end — a publish()
        // racing this batch never tears a query.
        const WorldPtr world = store_ != nullptr ? store_->current() : pinned_;
        const MultiLabelCorrecting solver(world, options_.mlc);
        QueryOutcome outcome;
        outcome.world = world;
        outcome.result = solver.search(query.origin, query.destination,
                                       query.departure);
        if (options_.run_selection)
          outcome.selection = detail::select_representative_routes(
              outcome.result.routes, world->solar_map(),
              world->vehicle(options_.mlc.vehicle), query.departure,
              options_.selection);
        const double run_seconds = seconds_between(begun, Clock::now());
        outcome.cpu_seconds = obs::thread_cpu_seconds() - cpu_started;
        metrics.run_time.observe(run_seconds);
        latency.observe(run_seconds);
        detail::mlc_cpu_seconds(options_.mlc.pricing).add(outcome.cpu_seconds);
        if (log != nullptr) {
          obs::QueryRecord record = start_record(query, i,
                                                 options_.mlc.pricing);
          record.trace_id = trace_hex;
          record.world_version = static_cast<std::int64_t>(world->version());
          const MlcStats& stats = outcome.result.stats;
          record.mlc_seconds = stats.search_seconds;
          record.labels_created = stats.labels_created;
          record.labels_dominated = stats.labels_dominated;
          record.queue_pops = stats.queue_pops;
          record.pareto_size = stats.pareto_size;
          record.labels_pruned_bound = stats.labels_pruned_bound;
          record.labels_merged_epsilon = stats.labels_merged_epsilon;
          record.lower_bound_seconds = stats.lower_bound_seconds;
          if (outcome.selection.has_value()) {
            const SelectionResult& sel = *outcome.selection;
            record.kmeans_seconds = sel.kmeans_seconds;
            record.selection_seconds = sel.selection_seconds;
            record.candidate_count = sel.candidates.size();
            if (!sel.candidates.empty()) {
              const CandidateRoute& best = sel.candidates.size() > 1
                                               ? sel.candidates[1]
                                               : sel.candidates[0];
              record.travel_time_s = best.metrics.travel_time.value();
              record.shaded_time_s = best.metrics.shaded_time.value();
              record.energy_out_wh = best.metrics.energy_out.value();
              record.energy_in_wh = best.metrics.energy_in.value();
            }
          } else if (!outcome.result.routes.empty()) {
            // No selection pipeline: summarize the shortest-time Pareto
            // route (what the paper falls back to).
            const auto fastest = std::min_element(
                outcome.result.routes.begin(), outcome.result.routes.end(),
                [](const ParetoRoute& a, const ParetoRoute& b) {
                  return a.cost.travel_time.value() <
                         b.cost.travel_time.value();
                });
            const RouteMetrics best = detail::evaluate_route(
                world->solar_map(), world->vehicle(options_.mlc.vehicle),
                fastest->path, query.departure);
            record.candidate_count = outcome.result.routes.size();
            record.travel_time_s = best.travel_time.value();
            record.shaded_time_s = best.shaded_time.value();
            record.energy_out_wh = best.energy_out.value();
            record.energy_in_wh = best.energy_in.value();
          }
          record.total_seconds = run_seconds;
          record.cpu_ms = outcome.cpu_seconds * 1000.0;
          log->write(record);
        }
        return outcome;
      }));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      try {
        QueryOutcome outcome = futures[i].get();
        result.queries[i].result = std::move(outcome.result);
        result.queries[i].selection = std::move(outcome.selection);
        result.queries[i].world = std::move(outcome.world);
        result.queries[i].cpu_seconds = outcome.cpu_seconds;
      } catch (const std::exception& e) {
        result.queries[i].error = e.what();
        if (log != nullptr) {
          obs::QueryRecord record =
              start_record(queries[i], i, options_.mlc.pricing);
          record.trace_id = trace_hex;
          // The failing query's own snapshot died with its exception;
          // the planner's current view is the best available stamp.
          record.world_version =
              static_cast<std::int64_t>(world()->version());
          record.status = "error";
          record.error = e.what();
          log->write(record);
        }
        SUNCHASE_LOG(Info) << "batch: query " << i << " ("
                           << queries[i].origin << "->"
                           << queries[i].destination << " @ "
                           << queries[i].departure.to_string()
                           << ") failed: " << e.what();
      }
    }
  }
  const double elapsed = seconds_between(start, Clock::now());

  for (const BatchQueryResult& qr : result.queries) {
    if (qr.ok()) {
      ++result.stats.succeeded;
      accumulate(result.stats.totals, qr.result->stats);
    } else {
      ++result.stats.failed;
    }
    result.stats.cpu_seconds += qr.cpu_seconds;
  }
  result.stats.wall_seconds = elapsed;
  if (result.stats.wall_seconds > 0.0)
    result.stats.queries_per_second =
        static_cast<double>(queries.size()) / result.stats.wall_seconds;

  result.stats.latency = latency.snapshot();

  metrics.throughput.set(result.stats.queries_per_second);
  metrics.queries_ok.add(result.stats.succeeded);
  metrics.queries_failed.add(result.stats.failed);
  // Labeled per-pricing-mode breakdown alongside the plain totals (the
  // plain names stay — CI and bench_compare read them). Pricing mode is
  // a two-value enum, so cardinality is bounded by construction.
  const obs::Labels pricing_labels{
      {"pricing", pricing_name(options_.mlc.pricing)}};
  obs::Registry::global()
      .counter("batch.queries_by_pricing", pricing_labels)
      .add(result.stats.succeeded + result.stats.failed);
  obs::Registry::global()
      .histogram("batch.run_seconds_by_pricing", pricing_labels,
                 obs::latency_bounds())
      .observe(result.stats.wall_seconds);
  SUNCHASE_LOG(Debug) << "batch: " << result.stats.succeeded << "/"
                      << queries.size() << " queries ok on " << workers
                      << " workers in " << elapsed << " s ("
                      << result.stats.queries_per_second << " q/s)";
  return result;
}

}  // namespace sunchase::core
