// The SunChase planner facade: one call from (origin, destination,
// departure, vehicle) to the paper's output — the shortest-time route
// plus the better-solar candidates that pass the Eq. 5 test.
#pragma once

#include <cstdint>
#include <optional>

#include "sunchase/core/mlc.h"
#include "sunchase/core/selection.h"

namespace sunchase::obs {
class QueryLog;
}  // namespace sunchase::obs

namespace sunchase::core {

struct PlannerOptions {
  MlcOptions mlc{};
  SelectionOptions selection{};
  /// When set, every plan() appends one structured QueryRecord —
  /// per-phase durations, search effort, chosen-route energy summary,
  /// or the error. Borrowed; keep the log alive while planning.
  obs::QueryLog* query_log = nullptr;
};

/// A complete plan for one trip.
struct PlanResult {
  /// candidates[0]: shortest-time route; the rest: better-solar routes
  /// (positive EnergyExtra), best first.
  std::vector<CandidateRoute> candidates;
  std::size_t pareto_route_count = 0;  ///< "N candidate Pareto routes"
  std::size_t cluster_count = 0;
  MlcStats search_stats;
  /// Thread CPU time the plan actually consumed (search + selection),
  /// via CLOCK_THREAD_CPUTIME_ID — callers stamp it into ledgers and
  /// responses without re-measuring.
  double cpu_seconds = 0.0;

  /// core::recommended(candidates): the best better-solar candidate, or
  /// the shortest-time path. Throws RoutingError on an empty plan.
  [[nodiscard]] const CandidateRoute& recommended() const {
    return core::recommended(candidates);
  }
  [[nodiscard]] bool has_better_solar() const noexcept {
    return candidates.size() > 1;
  }
};

class SunChasePlanner {
 public:
  /// Pins one immutable world snapshot for the planner's lifetime; the
  /// vehicle is options.mlc.vehicle. Throws InvalidArgument for a null
  /// world or an unknown vehicle index.
  explicit SunChasePlanner(WorldPtr world,
                           PlannerOptions options = PlannerOptions{});

  /// Plans a trip. Throws RoutingError when the destination is
  /// unreachable within the time budget.
  [[nodiscard]] PlanResult plan(roadnet::NodeId origin,
                                roadnet::NodeId destination,
                                TimeOfDay departure) const;

  [[nodiscard]] const PlannerOptions& options() const noexcept {
    return options_;
  }
  /// The snapshot every plan() prices against.
  [[nodiscard]] const WorldPtr& world() const noexcept {
    return solver_.world();
  }
  [[nodiscard]] const ev::ConsumptionModel& vehicle() const;

 private:
  PlannerOptions options_;
  MultiLabelCorrecting solver_;
};

namespace detail {

/// What the per-query planning step hands back.
struct PlannedQuery {
  MlcResult search;
  /// Set when the step ran the selection pipeline.
  std::optional<SelectionResult> selection;
  double cpu_seconds = 0.0;   ///< thread CPU of search + selection
  double wall_seconds = 0.0;  ///< wall clock of search + selection
};

/// The one per-query planning step; SunChasePlanner::plan and every
/// BatchPlanner worker call it. In order: the MLC search on `solver`'s
/// pinned snapshot; the selection pipeline when `selection` is set; the
/// query's thread CPU added to mlc.cpu_seconds{pricing}; and, when `log`
/// is set, the query's one QueryRecord — mode "plan" for index -1,
/// otherwise "batch" with its index. When the search or selection
/// throws, the record is an error record and the exception propagates.
[[nodiscard]] PlannedQuery plan_query(const MultiLabelCorrecting& solver,
                                      roadnet::NodeId origin,
                                      roadnet::NodeId destination,
                                      TimeOfDay departure,
                                      const SelectionOptions* selection,
                                      obs::QueryLog* log,
                                      std::int64_t index = -1);

}  // namespace detail

}  // namespace sunchase::core
