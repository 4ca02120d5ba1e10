// Folds crowdsensed shadow observations into the versioned world
// stream: the paper's Sec. VI vision of a crowd-drawn solar map, made
// operational. A CrowdSolarMap's covered cells correct the base
// snapshot's shading profile; everything else (graph, traffic, panel
// power, vehicles) is carried over by shared_ptr, so publishing the
// corrected world costs one copy of the base profile's table plus the
// solar-map rebuild — and in-flight queries keep the snapshot they
// pinned.
#pragma once

#include "sunchase/core/world.h"
#include "sunchase/core/world_store.h"
#include "sunchase/crowd/crowd_map.h"

namespace sunchase::crowd {

/// The base snapshot's recipe with its shading profile replaced by a
/// crowd-corrected one: cells the crowd covers (enough reports) take
/// the crowd mean; every other (edge, slot) keeps the base profile's
/// value — NOT the crowd map's own prior, so folding never degrades
/// cells the fleet did not drive. The corrected profile samples the
/// same slot window as the base. Throws InvalidArgument when the crowd
/// map's edge count is not the world's.
[[nodiscard]] core::WorldInit fold_observations(const core::World& base,
                                                const CrowdSolarMap& crowd);

/// Folds the crowd map into the store's current snapshot and publishes
/// the result as the next world version. Readers pinned to older
/// versions are unaffected; new queries pick up the corrected shading.
core::WorldPtr publish_crowd_world(core::WorldStore& store,
                                   const CrowdSolarMap& crowd);

}  // namespace sunchase::crowd
