#include "sunchase/core/selection.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>

#include "sunchase/common/error.h"
#include "sunchase/common/logging.h"
#include "sunchase/core/world.h"
#include "sunchase/obs/trace.h"

namespace sunchase::core {

namespace {

/// Index of the route minimizing a single criterion (ties -> first).
template <class Key>
std::size_t argmin(const std::vector<ParetoRoute>& routes, Key key) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < routes.size(); ++i)
    if (key(routes[i]) < key(routes[best])) best = i;
  return best;
}

}  // namespace

const CandidateRoute& recommended(
    const std::vector<CandidateRoute>& candidates) {
  if (candidates.empty()) throw RoutingError("recommended: no candidates");
  return candidates.size() > 1 ? candidates[1] : candidates[0];
}

SelectionResult select_representative_routes(
    const std::vector<ParetoRoute>& pareto, const WorldPtr& world,
    TimeOfDay departure, const SelectionOptions& options,
    std::size_t vehicle) {
  if (!world)
    throw InvalidArgument("select_representative_routes: null world");
  return detail::select_representative_routes(
      pareto, world->solar_map(), world->vehicle(vehicle), departure, options);
}

namespace detail {

SelectionResult select_representative_routes(
    const std::vector<ParetoRoute>& pareto, const solar::SolarInputMap& map,
    const ev::ConsumptionModel& vehicle, TimeOfDay departure,
    const SelectionOptions& options) {
  const obs::SpanTimer span("core.selection");
  const auto selection_start = std::chrono::steady_clock::now();
  const auto seconds_since = [](std::chrono::steady_clock::time_point from) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         from)
        .count();
  };
  SelectionResult result;
  if (pareto.empty()) return result;

  // Label vectors (normalized) for clustering.
  std::vector<LabelVector> points;
  points.reserve(pareto.size());
  for (const ParetoRoute& r : pareto)
    points.push_back(LabelVector{r.cost.travel_time.value(),
                                 r.cost.shaded_time.value(),
                                 r.cost.energy_out.value()});
  const std::vector<LabelVector> normalized = normalize_dimensions(points);

  const auto kmeans_start = std::chrono::steady_clock::now();
  const Clustering clustering =
      bisecting_kmeans(normalized, options.clustering);
  result.kmeans_seconds = seconds_since(kmeans_start);
  result.cluster_count = clustering.clusters.size();

  // Step 1: single-cost-optimum routes.
  std::set<std::size_t> chosen;
  chosen.insert(argmin(pareto, [](const ParetoRoute& r) {
    return r.cost.travel_time.value();
  }));
  chosen.insert(argmin(pareto, [](const ParetoRoute& r) {
    return r.cost.shaded_time.value();
  }));
  chosen.insert(argmin(pareto, [](const ParetoRoute& r) {
    return r.cost.energy_out.value();
  }));

  // Step 2: for clusters holding no single-cost optimum, take the
  // route closest to the cluster centroid (Manhattan distance).
  for (const auto& cluster : clustering.clusters) {
    const bool has_optimum =
        std::any_of(cluster.begin(), cluster.end(),
                    [&](std::size_t i) { return chosen.contains(i); });
    if (has_optimum || cluster.empty()) continue;
    const LabelVector c = centroid(normalized, cluster);
    std::size_t medoid = cluster.front();
    double best_d = std::numeric_limits<double>::infinity();
    for (const std::size_t i : cluster) {
      const double d = manhattan(normalized[i], c);
      if (d < best_d) {
        best_d = d;
        medoid = i;
      }
    }
    chosen.insert(medoid);
  }
  result.representative_count = chosen.size();

  // The baseline: shortest-time route (always reported first).
  const std::size_t shortest = argmin(pareto, [](const ParetoRoute& r) {
    return r.cost.travel_time.value();
  });
  const RouteMetrics baseline =
      evaluate_route(map, vehicle, pareto[shortest].path, departure);

  const auto feasible = [&](const RouteMetrics& m) {
    return !options.battery_budget ||
           m.energy_out - m.energy_in <= *options.battery_budget;
  };

  CandidateRoute base;
  base.route = pareto[shortest];
  base.metrics = baseline;
  base.is_shortest_time = true;
  base.battery_feasible = feasible(baseline);
  result.candidates.push_back(std::move(base));

  // Step 3: Eq. 5 filter on the remaining representatives.
  std::vector<CandidateRoute> better;
  for (const std::size_t i : chosen) {
    if (i == shortest) continue;
    CandidateRoute cand;
    cand.route = pareto[i];
    cand.metrics = evaluate_route(map, vehicle, pareto[i].path, departure);
    cand.extra_energy = energy_extra(cand.metrics, baseline);
    cand.extra_time = cand.metrics.travel_time - baseline.travel_time;
    // A "better solar" candidate must actually harvest more than the
    // baseline (the paper's premise) AND pass the Eq. 5 net test; a
    // route that merely consumes less is not a solar route.
    if (options.require_positive_energy_extra &&
        (cand.extra_energy.value() <= 0.0 ||
         cand.metrics.energy_in <= baseline.energy_in))
      continue;
    cand.battery_feasible = feasible(cand.metrics);
    if (!cand.battery_feasible) continue;
    better.push_back(std::move(cand));
  }
  std::sort(better.begin(), better.end(),
            [](const CandidateRoute& a, const CandidateRoute& b) {
              return a.extra_energy > b.extra_energy;
            });
  for (auto& cand : better) result.candidates.push_back(std::move(cand));
  result.selection_seconds = seconds_since(selection_start);
  SUNCHASE_LOG(Debug) << "selection: " << pareto.size() << " Pareto routes, "
                      << result.cluster_count << " clusters, "
                      << result.representative_count
                      << " representatives -> " << result.candidates.size()
                      << " candidates";
  return result;
}

}  // namespace detail

}  // namespace sunchase::core
