// The solar input map: for any edge at any time, the solar travel time
// (Eq. 3), the harvested energy (Eq. 2), and the shaded travel time the
// router minimizes ("less shadows means more solar input", Sec. IV-C).
// Combines the shading profile, the traffic model, and the panel power.
#pragma once

#include <atomic>

#include "sunchase/common/time_of_day.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/roadnet/traffic.h"
#include "sunchase/shadow/shading.h"
#include "sunchase/solar/panel.h"

namespace sunchase::solar {

/// Per-edge quantities at a given entry time.
struct EdgeSolar {
  Seconds travel_time{0.0};   ///< full edge traversal time
  Seconds solar_time{0.0};    ///< t_solar = S_solar / V (Eq. 3)
  Seconds shaded_time{0.0};   ///< travel_time - solar_time
  WattHours energy_in{0.0};   ///< C * t_solar (Eq. 2)
  double shade_ratio = 0.0;   ///< shaded fraction at the 15-min slot

  friend bool operator==(const EdgeSolar&, const EdgeSolar&) = default;
};

/// Borrows the graph, shading profile and traffic model (callers keep
/// them alive); owns the panel-power function.
class SolarInputMap {
 public:
  SolarInputMap(const roadnet::RoadGraph& graph,
                const shadow::ShadingProfile& shading,
                const roadnet::TrafficModel& traffic,
                PanelPowerFn panel_power);

  /// All solar quantities for entering `edge` at `when`.
  [[nodiscard]] EdgeSolar evaluate(roadnet::EdgeId edge, TimeOfDay when) const;

  /// Panel input power C at `when` (constant within a 15-min slot).
  [[nodiscard]] Watts panel_power(TimeOfDay when) const;

  [[nodiscard]] const roadnet::RoadGraph& graph() const noexcept {
    return graph_;
  }
  [[nodiscard]] const roadnet::TrafficModel& traffic() const noexcept {
    return traffic_;
  }
  [[nodiscard]] const shadow::ShadingProfile& shading() const noexcept {
    return shading_;
  }

 private:
  const roadnet::RoadGraph& graph_;
  const shadow::ShadingProfile& shading_;
  const roadnet::TrafficModel& traffic_;
  PanelPowerFn panel_power_;
  obs::Counter& evaluate_calls_;  ///< "solar.evaluate_calls"
  /// Last 15-min slot a debug narrative was logged for (evaluate() is
  /// const and concurrent, hence atomic; -1 = none yet).
  mutable std::atomic<int> last_logged_slot_{-1};
};

}  // namespace sunchase::solar
