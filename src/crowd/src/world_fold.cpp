#include "sunchase/crowd/world_fold.h"

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sunchase/common/error.h"
#include "sunchase/common/frozen_array.h"

namespace sunchase::crowd {

core::WorldInit fold_observations(const core::World& base,
                                  const CrowdSolarMap& crowd) {
  const shadow::ShadingProfile& prior = base.shading();
  const std::size_t edges = prior.edge_count();
  if (crowd.edge_count() != edges)
    throw InvalidArgument("fold_observations: crowd map has " +
                          std::to_string(crowd.edge_count()) +
                          " edges, the world " + std::to_string(edges));
  core::WorldInit init = base.recipe();
  // Copy the base table (an edge's slots side by side) and overwrite
  // only the covered cells: the work follows the reports.
  const std::span<const float> base_fractions = prior.fractions();
  std::vector<float> fractions(base_fractions.begin(), base_fractions.end());
  const int first = prior.first_slot();
  const int last = prior.last_slot();
  const auto slots = static_cast<std::size_t>(last - first + 1);
  crowd.for_each_covered([&](roadnet::EdgeId edge, int slot, double mean) {
    if (slot < first || slot > last) return;  // outside the base window
    fractions[edge * slots + static_cast<std::size_t>(slot - first)] =
        static_cast<float>(mean);
  });
  init.shading = std::make_shared<const shadow::ShadingProfile>(
      shadow::ShadingProfile::from_parts(
          edges, first, last,
          common::FrozenArray<float>(std::move(fractions))));
  return init;
}

core::WorldPtr publish_crowd_world(core::WorldStore& store,
                                   const CrowdSolarMap& crowd) {
  return store.publish(fold_observations(*store.current(), crowd));
}

}  // namespace sunchase::crowd
