#include "sunchase/core/batch_planner.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <utility>

#include "sunchase/common/error.h"
#include "sunchase/common/logging.h"
#include "sunchase/common/thread_pool.h"
#include "sunchase/core/planner.h"
#include "sunchase/core/world_store.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/obs/profiler.h"
#include "sunchase/obs/trace.h"

namespace sunchase::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
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
  // The profiler analog of the trace capture above: the submitting
  // thread's open span names (e.g. serve.request), re-installed on each
  // worker so its samples fold under the originating request instead of
  // appearing as a detached batch.query root.
  const std::vector<const char*> span_parent = obs::current_span_stack();
  const SelectionOptions* const selection =
      options_.run_selection ? &options_.selection : nullptr;

  const auto start = Clock::now();
  {
    common::ThreadPool pool(workers);
    std::vector<std::future<BatchQueryResult>> futures;
    futures.reserve(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const BatchQuery query = queries[i];
      const auto submitted = Clock::now();
      futures.push_back(pool.submit([this, query, i, submitted, selection,
                                     &metrics, &latency, trace_parent,
                                     &span_parent] {
        metrics.queue_wait.observe(seconds_between(submitted, Clock::now()));
        const obs::TraceScope trace_scope(trace_parent);
        const obs::SpanStackScope stack_scope(span_parent);
        const obs::SpanTimer span("batch.query");
        BatchQueryResult outcome;
        // Caught here rather than carried by the future: a cross-thread
        // exception_ptr is freed by whichever thread drops it last,
        // through a refcount the thread sanitizer cannot see.
        try {
          // Pin this query's snapshot: in live mode each query loads the
          // store's current world when its worker picks it up, and
          // prices every edge against that one version end to end — a
          // publish() racing this batch never tears a query.
          const MultiLabelCorrecting solver(world(), options_.mlc);
          detail::PlannedQuery planned = detail::plan_query(
              solver, query.origin, query.destination, query.departure,
              selection, options_.query_log, static_cast<std::int64_t>(i));
          metrics.run_time.observe(planned.wall_seconds);
          latency.observe(planned.wall_seconds);
          outcome.result = std::move(planned.search);
          outcome.selection = std::move(planned.selection);
          outcome.world = solver.world();
          outcome.cpu_seconds = planned.cpu_seconds;
        } catch (const std::exception& e) {
          outcome.error = e.what();
        }
        return outcome;
      }));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      result.queries[i] = futures[i].get();
      if (!result.queries[i].ok())
        SUNCHASE_LOG(Info) << "batch: query " << i << " ("
                           << queries[i].origin << "->"
                           << queries[i].destination << " @ "
                           << queries[i].departure.to_string()
                           << ") failed: " << result.queries[i].error;
    }
  }
  const double elapsed = seconds_between(start, Clock::now());

  for (const BatchQueryResult& qr : result.queries) {
    if (qr.ok()) {
      ++result.stats.succeeded;
      result.stats.totals += qr.result->stats;
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
  // Queries per pricing mode; a two-value enum, so cardinality is
  // bounded by construction.
  obs::Registry::global()
      .counter("batch.queries_by_pricing",
               {{"pricing", pricing_name(options_.mlc.pricing)}})
      .add(result.stats.succeeded + result.stats.failed);
  SUNCHASE_LOG(Debug) << "batch: " << result.stats.succeeded << "/"
                      << queries.size() << " queries ok on " << workers
                      << " workers in " << elapsed << " s ("
                      << result.stats.queries_per_second << " q/s)";
  return result;
}

}  // namespace sunchase::core
