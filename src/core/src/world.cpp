#include "sunchase/core/world.h"

#include <utility>

#include "sunchase/common/error.h"
#include "sunchase/common/logging.h"

namespace sunchase::core {

World::World(WorldInit init, std::uint64_t version)
    : init_(std::move(init)),
      version_(version),
      map_(*init_.graph, *init_.shading, *init_.traffic, init_.panel_power) {
  caches_.reserve(init_.vehicles.size());
  for (const auto& vehicle : init_.vehicles)
    caches_.push_back(std::unique_ptr<SlotCostCache>(
        new SlotCostCache(map_, *vehicle)));
}

WorldPtr World::create(WorldInit init, std::uint64_t version) {
  if (!init.graph) throw InvalidArgument("World: null graph");
  if (!init.traffic) throw InvalidArgument("World: null traffic model");
  if (!init.shading) throw InvalidArgument("World: null shading profile");
  if (!init.panel_power)
    throw InvalidArgument("World: null panel power function");
  if (init.vehicles.empty())
    throw InvalidArgument("World: at least one vehicle is required");
  for (const auto& vehicle : init.vehicles)
    if (!vehicle) throw InvalidArgument("World: null vehicle model");
  // Not make_shared: the constructor is private, and the object must
  // never move (the solar map and caches hold references into it).
  return WorldPtr(new World(std::move(init), version));
}

const ev::ConsumptionModel& World::vehicle(std::size_t index) const {
  if (index >= init_.vehicles.size())
    throw InvalidArgument("World::vehicle: index " + std::to_string(index) +
                          " outside [0, " +
                          std::to_string(init_.vehicles.size()) + ")");
  return *init_.vehicles[index];
}

const SlotCostCache& World::slot_cache(std::size_t index) const {
  if (index >= caches_.size())
    throw InvalidArgument("World::slot_cache: index " +
                          std::to_string(index) + " outside [0, " +
                          std::to_string(caches_.size()) + ")");
  return *caches_[index];
}

}  // namespace sunchase::core
