// The k = 3 criteria vector of the multi-criteria routing model
// (Sec. III-B): travel time, solar input, and EV energy consumption.
// All three are minimized — solar input enters as *shaded travel time*,
// following the paper: "We compute the csi(v) by calculating the EV
// travel time on shaded road segments. Since less shadows means more
// solar input."
#pragma once

#include "sunchase/common/units.h"

namespace sunchase::core {

/// Additive route cost vector (c_tt, c_si, c_ec).
struct Criteria {
  Seconds travel_time{0.0};
  Seconds shaded_time{0.0};
  WattHours energy_out{0.0};

  Criteria& operator+=(const Criteria& o) noexcept {
    travel_time += o.travel_time;
    shaded_time += o.shaded_time;
    energy_out += o.energy_out;
    return *this;
  }
  friend Criteria operator+(Criteria a, const Criteria& b) noexcept {
    return a += b;
  }
  friend bool operator==(const Criteria&, const Criteria&) noexcept = default;
};

/// Comparison tolerance: differences below this are treated as ties so
/// floating-point dust cannot inflate the Pareto set.
inline constexpr double kCriteriaEpsilon = 1e-9;

namespace detail {

/// -1 / 0 / +1 comparison with the shared tolerance.
[[nodiscard]] inline int fuzzy_cmp(double a, double b) noexcept {
  if (a < b - kCriteriaEpsilon) return -1;
  if (a > b + kCriteriaEpsilon) return +1;
  return 0;
}

}  // namespace detail

// The comparisons below are inline: the label search's heap sifts call
// lex_less hundreds of thousands of times per query. Its bag scan
// restates the reject, epsilon-merge and dominates() tests a block of
// rows at a time (detail/bag_block.h), with the same comparisons.

/// Pareto dominance: a dominates b iff a <= b in every criterion and
/// a < b in at least one (Sec. III-B), with epsilon tolerance — no
/// fuzzy_cmp(a, b) > 0 and some fuzzy_cmp(a, b) < 0. Written without
/// branches (fuzzy_cmp > 0 is exactly a > b + epsilon, < 0 exactly
/// a < b - epsilon), since bag scans feed it unpredictable data.
[[nodiscard]] inline bool dominates(const Criteria& a,
                                    const Criteria& b) noexcept {
  const double at = a.travel_time.value();
  const double as = a.shaded_time.value();
  const double ae = a.energy_out.value();
  const double bt = b.travel_time.value();
  const double bs = b.shaded_time.value();
  const double be = b.energy_out.value();
  const bool worse = (at > bt + kCriteriaEpsilon) |
                     (as > bs + kCriteriaEpsilon) |
                     (ae > be + kCriteriaEpsilon);
  const bool better = (at < bt - kCriteriaEpsilon) |
                      (as < bs - kCriteriaEpsilon) |
                      (ae < be - kCriteriaEpsilon);
  return better & !worse;
}

/// True when the two vectors are equal within tolerance.
[[nodiscard]] inline bool equivalent(const Criteria& a,
                                     const Criteria& b) noexcept {
  using detail::fuzzy_cmp;
  return fuzzy_cmp(a.travel_time.value(), b.travel_time.value()) == 0 &&
         fuzzy_cmp(a.shaded_time.value(), b.shaded_time.value()) == 0 &&
         fuzzy_cmp(a.energy_out.value(), b.energy_out.value()) == 0;
}

/// Relaxed (epsilon-)dominance for approximate Pareto merging: true when
/// a.c <= (1 + epsilon) * b.c in every criterion, i.e. `a` is at worst a
/// factor (1+epsilon) of `b` everywhere. With epsilon = 0 this degrades
/// to "a <= b componentwise" (weak dominance, no strictness clause) —
/// callers that need exactness must not route through it at epsilon = 0;
/// the MLC merge only consults it when epsilon > 0.
[[nodiscard]] bool epsilon_dominates(const Criteria& a, const Criteria& b,
                                     double epsilon) noexcept;

/// Lexicographic order (travel time, then shaded time, then energy):
/// the priority-queue order of the multi-label correcting algorithm
/// ("extract the minimum label (in lexicographic order)").
[[nodiscard]] inline bool lex_less(const Criteria& a,
                                   const Criteria& b) noexcept {
  using detail::fuzzy_cmp;
  if (const int c = fuzzy_cmp(a.travel_time.value(), b.travel_time.value()))
    return c < 0;
  if (const int c = fuzzy_cmp(a.shaded_time.value(), b.shaded_time.value()))
    return c < 0;
  return fuzzy_cmp(a.energy_out.value(), b.energy_out.value()) < 0;
}

}  // namespace sunchase::core
