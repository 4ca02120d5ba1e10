#include "sunchase/core/criteria.h"

namespace sunchase::core {

bool epsilon_dominates(const Criteria& a, const Criteria& b,
                       double epsilon) noexcept {
  const double scale = 1.0 + epsilon;
  return a.travel_time.value() <=
             scale * b.travel_time.value() + kCriteriaEpsilon &&
         a.shaded_time.value() <=
             scale * b.shaded_time.value() + kCriteriaEpsilon &&
         a.energy_out.value() <=
             scale * b.energy_out.value() + kCriteriaEpsilon;
}

}  // namespace sunchase::core
