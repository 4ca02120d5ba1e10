// Route-level accounting: the TL / TT / EI / EC columns of the paper's
// routing tables, and the EnergyExtra feasibility test of Eq. 5.
#pragma once

#include <functional>

#include "sunchase/core/edge_cost.h"
#include "sunchase/core/world_fwd.h"
#include "sunchase/roadnet/path.h"

namespace sunchase::core {

/// Everything the paper reports per route.
struct RouteMetrics {
  Meters total_length{0.0};   ///< TL
  Seconds travel_time{0.0};   ///< TT
  Seconds solar_time{0.0};    ///< time on illuminated segments (Eq. 3)
  Seconds shaded_time{0.0};
  WattHours energy_in{0.0};   ///< EI (Eq. 2, summed per edge)
  WattHours energy_out{0.0};  ///< EC for the evaluated vehicle (Eq. 6)
};

/// The metrics of `path` for the world's `vehicle` under exact,
/// time-dependent pricing: for a route the search found so priced, its
/// cost vector bit for bit. Empty path -> all-zero metrics. Throws
/// InvalidArgument for a null world or an unknown vehicle index.
[[nodiscard]] RouteMetrics evaluate_route(const WorldPtr& world,
                                          const roadnet::Path& path,
                                          TimeOfDay departure,
                                          std::size_t vehicle = 0);

namespace detail {

/// What walk_route hands each edge: the edge, its entry clock, its
/// price and the route's metrics through it.
using RouteVisit = std::function<void(roadnet::EdgeId, TimeOfDay,
                                      const EdgePrice&, const RouteMetrics&)>;

/// The one route walk. Enters each edge of `path` at `departure`
/// advanced by the travel time so far (the departure itself when
/// `!time_dependent`) — the label search's clock — prices it with
/// price_edge at pricing_time(entry, `pricing`) and sums the metrics.
/// Throws GraphError for an unknown edge.
[[nodiscard]] RouteMetrics walk_route(const solar::SolarInputMap& map,
                                      const ev::ConsumptionModel& vehicle,
                                      const roadnet::Path& path,
                                      TimeOfDay departure, bool time_dependent,
                                      PricingMode pricing,
                                      const RouteVisit& visit = {});

/// walk_route with exact, time-dependent pricing; internal primitive
/// over snapshot components (see edge_cost.h).
[[nodiscard]] inline RouteMetrics evaluate_route(
    const solar::SolarInputMap& map, const ev::ConsumptionModel& vehicle,
    const roadnet::Path& path, TimeOfDay departure) {
  return walk_route(map, vehicle, path, departure, true, PricingMode::Exact);
}

}  // namespace detail

/// Eq. 5: extra solar input of `candidate` over `baseline` minus its
/// extra consumption. A candidate is worth driving iff this is > 0.
[[nodiscard]] WattHours energy_extra(const RouteMetrics& candidate,
                                     const RouteMetrics& baseline) noexcept;

}  // namespace sunchase::core
