#include "sunchase/crowd/crowd_map.h"

#include <algorithm>

#include "sunchase/common/error.h"

namespace sunchase::crowd {

CrowdSolarMap::CrowdSolarMap(std::size_t edge_count,
                             shadow::ShadedFractionFn prior, Options options)
    : edge_count_(edge_count), prior_(std::move(prior)), options_(options) {
  if (edge_count == 0)
    throw InvalidArgument("CrowdSolarMap: zero edges");
  if (!prior_) throw InvalidArgument("CrowdSolarMap: null prior");
  if (options.first_slot < 0 || options.last_slot < options.first_slot ||
      options.last_slot >= TimeOfDay::kSlotsPerDay)
    throw InvalidArgument("CrowdSolarMap: bad slot window");
  if (options.min_observations < 1)
    throw InvalidArgument("CrowdSolarMap: min_observations < 1");
  slots_ = static_cast<std::size_t>(options.last_slot - options.first_slot + 1);
}

std::size_t CrowdSolarMap::index_of(roadnet::EdgeId edge, int slot) const {
  return edge * slots_ + static_cast<std::size_t>(slot - options_.first_slot);
}

void CrowdSolarMap::report(const Observation& observation) {
  if (observation.edge >= edge_count_)
    throw InvalidArgument("CrowdSolarMap::report: unknown edge");
  if (observation.slot < options_.first_slot ||
      observation.slot > options_.last_slot)
    throw InvalidArgument("CrowdSolarMap::report: slot outside window");
  if (observation.shaded_fraction < 0.0 || observation.shaded_fraction > 1.0)
    throw InvalidArgument("CrowdSolarMap::report: fraction outside [0,1]");
  Cell& cell = cells_[index_of(observation.edge, observation.slot)];
  cell.sum += observation.shaded_fraction;
  if (++cell.count == options_.min_observations) ++covered_cells_;
  ++total_observations_;
}

double CrowdSolarMap::shaded_fraction(roadnet::EdgeId edge,
                                      TimeOfDay when) const {
  if (edge >= edge_count_)
    throw InvalidArgument("CrowdSolarMap::shaded_fraction: unknown edge");
  const int slot =
      std::clamp(when.slot_index(), options_.first_slot, options_.last_slot);
  const auto it = cells_.find(index_of(edge, slot));
  if (it != cells_.end() && it->second.count >= options_.min_observations)
    return it->second.sum / it->second.count;
  return prior_(edge, TimeOfDay::slot_start(slot));
}

bool CrowdSolarMap::covered(roadnet::EdgeId edge, int slot) const {
  if (edge >= edge_count_)
    throw InvalidArgument("CrowdSolarMap::covered: unknown edge");
  if (slot < options_.first_slot || slot > options_.last_slot) return false;
  const auto it = cells_.find(index_of(edge, slot));
  return it != cells_.end() && it->second.count >= options_.min_observations;
}

shadow::ShadedFractionFn CrowdSolarMap::estimator() const {
  return [this](roadnet::EdgeId edge, TimeOfDay when) {
    return shaded_fraction(edge, when);
  };
}

double CrowdSolarMap::coverage() const noexcept {
  return static_cast<double>(covered_cells_) /
         static_cast<double>(edge_count_ * slots_);
}

}  // namespace sunchase::crowd
