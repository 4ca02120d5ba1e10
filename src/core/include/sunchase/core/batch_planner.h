// Parallel batch-query planning: fan a vector of (origin, destination,
// departure) requests across a worker pool running the multi-label
// correcting search against a shared immutable world snapshot. This is
// the server-side pre-computation shape of the SCORE deployment model —
// one process answering many route queries per solar-map refresh, with
// live refreshes published through WorldStore while in-flight queries
// keep the snapshot they started on. Each worker runs the same
// per-query step as SunChasePlanner::plan (detail::plan_query in
// planner.h); BatchPlanner itself only fans out, pins each query's
// world and keeps the batch metrics.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "sunchase/core/mlc.h"
#include "sunchase/core/selection.h"
#include "sunchase/obs/metrics.h"

namespace sunchase::obs {
class QueryLog;
}  // namespace sunchase::obs

namespace sunchase::core {

/// One route request of a batch.
struct BatchQuery {
  roadnet::NodeId origin = roadnet::kInvalidNode;
  roadnet::NodeId destination = roadnet::kInvalidNode;
  TimeOfDay departure;
};

/// Outcome of one query: the full MlcResult on success, otherwise the
/// message of the exception the search threw. One failed query never
/// affects its neighbours.
struct BatchQueryResult {
  std::optional<MlcResult> result;
  /// The selection pipeline's candidates, when the batch ran with
  /// run_selection (what a route server would actually return).
  std::optional<SelectionResult> selection;
  std::string error;
  /// The exact snapshot this query was priced against — the pin the
  /// worker took when it picked the query up. In live (WorldStore)
  /// mode neighbouring queries of one batch may carry different
  /// versions when a publish landed mid-batch; consumers that replay
  /// or explain a result (the route server's /explain ledger) must use
  /// this pointer, not the store's current world. Null on error.
  WorldPtr world;
  /// Worker-thread CPU time this query consumed (search + selection),
  /// via CLOCK_THREAD_CPUTIME_ID. 0.0 on error.
  double cpu_seconds = 0.0;

  [[nodiscard]] bool ok() const noexcept { return result.has_value(); }
};

struct BatchPlannerOptions {
  /// Worker threads; 0 means one per hardware thread.
  std::size_t workers = 0;
  MlcOptions mlc{};
  /// Also run clustering + representative-route selection per query
  /// (inside the worker), filling BatchQueryResult::selection.
  bool run_selection = false;
  SelectionOptions selection{};
  /// When set, every query of every batch appends one structured
  /// QueryRecord (written from inside the worker, success or failure).
  /// Borrowed; keep the log alive while planning.
  obs::QueryLog* query_log = nullptr;
};

/// Batch-level instrumentation: per-search stats summed over the
/// successful queries, plus wall-clock throughput of the whole batch.
struct BatchStats {
  std::size_t query_count = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  MlcStats totals;            ///< summed over successful searches
  std::size_t workers = 0;    ///< workers actually used
  double wall_seconds = 0.0;  ///< submit-to-last-result wall clock
  double queries_per_second = 0.0;
  /// Per-query in-worker latency distribution over successful queries,
  /// snapshotted from the batch-local histogram (empty when none
  /// succeed). Consumers derive percentiles via
  /// HistogramSnapshot::quantile — e.g. latency.quantile(0.95) — so the
  /// percentile math lives in one place.
  obs::HistogramSnapshot latency;
  /// Total worker CPU seconds across the batch. cpu_seconds /
  /// (wall_seconds * workers) is the pool's compute utilization.
  double cpu_seconds = 0.0;
};

struct BatchResult {
  std::vector<BatchQueryResult> queries;  ///< in input order
  BatchStats stats;
};

/// Every worker prices against an immutable world snapshot, so the
/// fan-out shares no mutable state at all. Two modes:
///
///  - Pinned (WorldPtr ctor): every query of every batch reads the one
///    snapshot given at construction — results are reproducible no
///    matter what is published elsewhere.
///  - Live (WorldStore ctor): each query loads the store's current
///    snapshot when its worker picks it up, then keeps it for the whole
///    query. A publish() mid-batch never blocks workers and never
///    changes a query already in flight; later queries see the new
///    version (check the query log's "world.version").
class BatchPlanner {
 public:
  explicit BatchPlanner(WorldPtr world,
                        BatchPlannerOptions options = BatchPlannerOptions{});
  /// Live mode; the store must outlive the planner.
  explicit BatchPlanner(const WorldStore& store,
                        BatchPlannerOptions options = BatchPlannerOptions{});

  /// Runs every query, in parallel, returning per-query results in
  /// input order. Per-query errors (unreachable destination, label
  /// budget, unknown node) are captured into the corresponding
  /// BatchQueryResult; the batch itself only throws on setup problems
  /// (e.g. invalid options).
  [[nodiscard]] BatchResult plan_all(
      const std::vector<BatchQuery>& queries) const;

  [[nodiscard]] const BatchPlannerOptions& options() const noexcept {
    return options_;
  }

  /// The snapshot the next query would price against: the pinned world,
  /// or the store's current version in live mode.
  [[nodiscard]] WorldPtr world() const;

 private:
  WorldPtr pinned_;               ///< pinned mode; null in live mode
  const WorldStore* store_ = nullptr;  ///< live mode; null when pinned
  BatchPlannerOptions options_;
};

}  // namespace sunchase::core
