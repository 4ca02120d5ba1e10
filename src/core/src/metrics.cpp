#include "sunchase/core/metrics.h"

#include "sunchase/common/error.h"
#include "sunchase/core/world.h"

namespace sunchase::core {

namespace detail {

EdgePrice price_edge(const solar::SolarInputMap& map,
                     const ev::ConsumptionModel& vehicle,
                     roadnet::EdgeId edge, TimeOfDay when) {
  const solar::EdgeSolar es = map.evaluate(edge, when);
  const auto& graph = map.graph();
  const MetersPerSecond v = map.traffic().speed(graph, edge, when);
  return EdgePrice{Criteria{es.travel_time, es.shaded_time,
                            vehicle.consumption(graph.edge(edge).length, v)},
                   es};
}

RouteMetrics walk_route(const solar::SolarInputMap& map,
                        const ev::ConsumptionModel& vehicle,
                        const roadnet::Path& path, TimeOfDay departure,
                        bool time_dependent, PricingMode pricing,
                        const RouteVisit& visit) {
  RouteMetrics m;
  for (const roadnet::EdgeId e : path.edges) {
    // The label search's clock, summed in path order as labels sum:
    // the totals are the route's criteria vector bit for bit.
    const TimeOfDay entry =
        time_dependent ? departure.advanced_by(m.travel_time) : departure;
    const EdgePrice price =
        price_edge(map, vehicle, e, pricing_time(entry, pricing));
    m.total_length += map.graph().edge(e).length;
    m.travel_time += price.criteria.travel_time;
    m.solar_time += price.solar.solar_time;
    m.shaded_time += price.criteria.shaded_time;
    m.energy_in += price.solar.energy_in;
    m.energy_out += price.criteria.energy_out;
    if (visit) visit(e, entry, price, m);
  }
  return m;
}

}  // namespace detail

RouteMetrics evaluate_route(const WorldPtr& world, const roadnet::Path& path,
                            TimeOfDay departure, std::size_t vehicle) {
  if (!world) throw InvalidArgument("evaluate_route: null world");
  return detail::evaluate_route(world->solar_map(), world->vehicle(vehicle),
                                path, departure);
}

WattHours energy_extra(const RouteMetrics& candidate,
                       const RouteMetrics& baseline) noexcept {
  // Eq. 5: (EI_i - EI_1) - (EC_i - EC_1) > 0.
  return (candidate.energy_in - baseline.energy_in) -
         (candidate.energy_out - baseline.energy_out);
}

}  // namespace sunchase::core
