#include "sunchase/crowd/world_fold.h"

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sunchase/common/frozen_array.h"

namespace sunchase::crowd {

core::WorldInit fold_observations(const core::World& base,
                                  const CrowdSolarMap& crowd) {
  core::WorldInit init = base.recipe();
  const shadow::ShadingProfile& prior = base.shading();
  // Start from the base table and overwrite the covered cells, one
  // edge's row of slots at a time: the table, the base profile and the
  // crowd map all store an edge's slots side by side, so the fold reads
  // and writes memory in order instead of jumping a row per cell.
  const std::span<const float> base_fractions = prior.fractions();
  std::vector<float> fractions(base_fractions.begin(), base_fractions.end());
  const std::size_t edges = prior.edge_count();
  const int first = prior.first_slot();
  const int last = prior.last_slot();
  std::size_t cell = 0;
  for (roadnet::EdgeId edge = 0; edge < edges; ++edge)
    for (int slot = first; slot <= last; ++slot, ++cell)
      if (crowd.covered(edge, slot))
        fractions[cell] = static_cast<float>(
            crowd.shaded_fraction(edge, TimeOfDay::slot_start(slot)));
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
