// The world snapshot: one immutable, versioned bundle of everything a
// planner consumes — the frozen road graph, traffic model, shading
// profile, the solar input map derived from them, the vehicle
// consumption models, and one shared per-(edge, slot) cost cache per
// vehicle. Every planning-layer object (planner, batch workers,
// explainer, replanner) holds a `WorldPtr = shared_ptr<const World>`:
// copying the pointer pins the snapshot, so live updates (crowdsensed
// shading, refreshed solar maps — the paper's Sec. VI future work and
// the SCORE server deployment model) publish a *new* version through
// `WorldStore` while in-flight queries keep reading the one they
// started on. Nothing mutates under a reader, nothing blocks, nothing
// tears.
//
// Components are held by shared_ptr so successive versions share
// structure (MVCC-snapshot style): folding a new shading profile into
// the next version reuses the same graph and traffic model allocation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sunchase/core/slot_cost_cache.h"
#include "sunchase/core/world_fwd.h"
#include "sunchase/ev/consumption.h"
#include "sunchase/roadnet/traffic.h"
#include "sunchase/shadow/shading.h"
#include "sunchase/solar/input_map.h"

namespace sunchase::core {

/// The ingredients of a snapshot. Components are shared so that a
/// derived version (see World::recipe) replaces only what changed.
struct WorldInit {
  std::shared_ptr<const roadnet::RoadGraph> graph;
  std::shared_ptr<const roadnet::TrafficModel> traffic;
  std::shared_ptr<const shadow::ShadingProfile> shading;
  solar::PanelPowerFn panel_power;
  /// At least one; index 0 is the default vehicle. MlcOptions::vehicle
  /// selects by index.
  std::vector<std::shared_ptr<const ev::ConsumptionModel>> vehicles;
};

class World {
 public:
  /// Builds a snapshot. Throws InvalidArgument when any component is
  /// null or no vehicle is given. `version` identifies the snapshot in
  /// query logs and benches; WorldStore assigns monotonically
  /// increasing versions, standalone snapshots default to 1.
  [[nodiscard]] static WorldPtr create(WorldInit init,
                                       std::uint64_t version = 1);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  [[nodiscard]] const roadnet::RoadGraph& graph() const noexcept {
    return *init_.graph;
  }
  [[nodiscard]] const roadnet::TrafficModel& traffic() const noexcept {
    return *init_.traffic;
  }
  [[nodiscard]] const shadow::ShadingProfile& shading() const noexcept {
    return *init_.shading;
  }
  [[nodiscard]] const solar::SolarInputMap& solar_map() const noexcept {
    return map_;
  }

  [[nodiscard]] std::size_t vehicle_count() const noexcept {
    return init_.vehicles.size();
  }
  /// Throws InvalidArgument for an out-of-range index.
  [[nodiscard]] const ev::ConsumptionModel& vehicle(
      std::size_t index = 0) const;

  /// The slot-quantized cost cache for a vehicle — ONE instance per
  /// (world version, vehicle), shared by every planner, batch worker
  /// and explainer on this snapshot. Throws InvalidArgument for an
  /// out-of-range index.
  [[nodiscard]] const SlotCostCache& slot_cache(std::size_t index = 0) const;

  /// A copy of this snapshot's ingredients, for deriving the next
  /// version: tweak one component (say, a crowd-corrected shading
  /// profile) and publish — the untouched components stay shared.
  [[nodiscard]] WorldInit recipe() const { return init_; }

 private:
  World(WorldInit init, std::uint64_t version);

  WorldInit init_;
  std::uint64_t version_;
  solar::SolarInputMap map_;
  std::vector<std::unique_ptr<SlotCostCache>> caches_;  ///< per vehicle
};

}  // namespace sunchase::core
