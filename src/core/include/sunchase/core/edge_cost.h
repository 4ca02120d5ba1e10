// Prices a road segment: the solar input map and an EV consumption
// model, combined into the criteria vector the router searches over.
#pragma once

#include "sunchase/core/criteria.h"
#include "sunchase/ev/consumption.h"
#include "sunchase/solar/input_map.h"

namespace sunchase::core {

/// What entering one edge at one clock costs: the search's criteria
/// vector plus the full solar accounting, both priced at that clock.
struct EdgePrice {
  Criteria criteria;
  solar::EdgeSolar solar;

  friend bool operator==(const EdgePrice&, const EdgePrice&) = default;
};

/// When an edge's criteria vector is priced relative to the label's
/// entry clock. The paper holds the panel power C and the shading
/// profile constant within each 15-minute slot (Sec. IV, Eq. 2-3), so
/// quantizing the pricing clock to the slot start loses nothing on a
/// slot-constant world — and lets every label entering an edge within
/// the same slot share one precomputed cost (core::SlotCostCache).
enum class PricingMode {
  /// Price at the label's exact entry clock (departure advanced by the
  /// accumulated travel time). The historical behavior.
  Exact,
  /// Price at TimeOfDay::slot_start(when.slot_index()) through the
  /// shared per-(edge, slot) cost cache. Bit-identical to Exact when
  /// every time-dependent input is slot-constant (uniform traffic,
  /// constant or per-slot panel power); bounded divergence under the
  /// continuous rush-hour traffic model (see EXPERIMENTS.md).
  SlotQuantized,
};

/// The clock an edge entered at `when` is priced at under `mode`.
[[nodiscard]] inline TimeOfDay pricing_time(TimeOfDay when,
                                            PricingMode mode) {
  return mode == PricingMode::SlotQuantized
             ? TimeOfDay::slot_start(when.slot_index())
             : when;
}

/// The CLI / query-log spelling of a mode: "exact" or "slot".
[[nodiscard]] constexpr const char* pricing_name(PricingMode mode) noexcept {
  return mode == PricingMode::SlotQuantized ? "slot" : "exact";
}

namespace detail {

/// Entering `edge` at `when` with `vehicle`: travel and shaded time
/// (Eq. 3), solar input (Eq. 2) and consumption (Eq. 6), all at `when`.
/// The one pricing rule: the label search, the slot cost cache, the
/// route walk (metrics.h) and the replanner all call it. Internal, over
/// snapshot components; public callers go through WorldPtr APIs.
[[nodiscard]] EdgePrice price_edge(const solar::SolarInputMap& map,
                                   const ev::ConsumptionModel& vehicle,
                                   roadnet::EdgeId edge, TimeOfDay when);

}  // namespace detail

}  // namespace sunchase::core
