// Optimal route selection (Sec. IV-D): compress the Pareto set with
// bisecting k-means, keep the single-cost-optimum routes plus one
// representative (medoid) per remaining cluster, then keep only the
// candidates whose EnergyExtra (Eq. 5) over the shortest-time path is
// positive. The shortest-time path itself is always reported.
#pragma once

#include <optional>

#include "sunchase/core/kmeans.h"
#include "sunchase/core/metrics.h"
#include "sunchase/core/mlc.h"

namespace sunchase::core {

struct SelectionOptions {
  BisectKMeansOptions clustering{};
  /// Keep only candidates with EnergyExtra > 0 AND more harvested
  /// energy than the baseline (the paper's Eq. 5 test on genuinely
  /// better-solar routes). Disable to inspect all representatives.
  bool require_positive_energy_extra = true;
  /// When set, a candidate is battery-feasible iff its net drain
  /// (energy_out - energy_in) fits in this budget — the range-anxiety
  /// check motivating the paper ("may not have enough energy to reach
  /// the destination"). Infeasible better-solar candidates are
  /// dropped; the shortest-time route is kept but flagged.
  std::optional<WattHours> battery_budget;
};

/// A selected route with everything the paper's tables print.
struct CandidateRoute {
  ParetoRoute route;
  RouteMetrics metrics;
  bool is_shortest_time = false;
  WattHours extra_energy{0.0};  ///< Eq. 5 vs the shortest-time path
  Seconds extra_time{0.0};      ///< TT difference vs shortest-time
  bool battery_feasible = true; ///< net drain within the battery budget

  /// Battery drained by the trip after solar harvest (negative when
  /// the trip is a net gain).
  [[nodiscard]] WattHours net_drain() const noexcept {
    return metrics.energy_out - metrics.energy_in;
  }
};

struct SelectionResult {
  /// candidates[0] is always the shortest-time route; the rest are the
  /// surviving better-solar routes, best extra-energy first.
  std::vector<CandidateRoute> candidates;
  std::size_t cluster_count = 0;
  std::size_t representative_count = 0;  ///< before the Eq. 5 filter
  /// Phase durations for the query log: the bisecting k-means step
  /// alone, and the whole selection pipeline.
  double kmeans_seconds = 0.0;
  double selection_seconds = 0.0;
};

/// The recommended route of a selection: the best better-solar
/// candidate when one survived, otherwise the shortest-time path —
/// exactly the paper's "if there is no better route, we selected the
/// shortest-time path". Throws RoutingError when `candidates` is empty.
[[nodiscard]] const CandidateRoute& recommended(
    const std::vector<CandidateRoute>& candidates);

/// Runs the full selection pipeline on a Pareto set, pricing routes
/// against the world's `vehicle`. An empty Pareto set yields an empty
/// result. Throws InvalidArgument for a null world or an unknown
/// vehicle index.
[[nodiscard]] SelectionResult select_representative_routes(
    const std::vector<ParetoRoute>& pareto, const WorldPtr& world,
    TimeOfDay departure, const SelectionOptions& options = SelectionOptions{},
    std::size_t vehicle = 0);

namespace detail {

/// Implementation primitive over snapshot components (see edge_cost.h).
[[nodiscard]] SelectionResult select_representative_routes(
    const std::vector<ParetoRoute>& pareto, const solar::SolarInputMap& map,
    const ev::ConsumptionModel& vehicle, TimeOfDay departure,
    const SelectionOptions& options = SelectionOptions{});

}  // namespace detail

}  // namespace sunchase::core
