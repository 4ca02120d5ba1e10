// Block predicates of the MLC bag scan (mlc.cpp). A node's bag keeps
// its labels' costs in creation order, four rows to a BagBlock, each
// criterion in two 16-byte-aligned lane pairs. The predicates answer,
// for a whole block at once, the questions Algorithm 1's insert asks of
// each row, with exactly the comparisons of criteria.h: same operands,
// same bounds, so ties and NaN fall the same way.
//
// Each predicate has one scalar definition, which compiles on every
// target, and an SSE2 form. SSE2 is part of the x86-64 baseline, so the
// SSE2 form needs no compiler flag; `block` names the form the kernel
// calls. tests/core/test_bag_block.cpp checks that the two agree.
//
// BagBounds holds a bag's running extremes and applies the same
// comparisons to them; when they clear the bound they clear every row,
// so the kernel skips that pass over the bag with the same answer.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "sunchase/core/criteria.h"

namespace sunchase::core::detail {

/// Four bag rows in structure-of-arrays form: lane i of every array is
/// row i. Value-initialized, so lanes past a bag's size always hold
/// determinate doubles; the valid-lane mask, not their values, keeps
/// them out of every predicate.
struct alignas(16) BagBlock {
  double time[4]{};
  double shade[4]{};
  double energy[4]{};
  std::uint32_t label[4]{};
};

/// Valid-lane mask of a full block.
inline constexpr unsigned kFullBlock = 0xFu;

/// A candidate cost and the bounds the predicates compare rows against,
/// computed once per insert.
struct Candidate {
  double time = 0.0;
  double shade = 0.0;
  double energy = 0.0;
  /// cost + kCriteriaEpsilon: a row rejects the candidate when no
  /// criterion exceeds these (equivalent() || dominates(row, cost)).
  double time_hi = 0.0;
  double shade_hi = 0.0;
  double energy_hi = 0.0;
  /// (1 + epsilon) * cost + kCriteriaEpsilon, the right-hand sides of
  /// epsilon_dominates(row, cost, epsilon).
  double time_merge = 0.0;
  double shade_merge = 0.0;
  double energy_merge = 0.0;

  [[nodiscard]] static Candidate of(const Criteria& cost,
                                    double epsilon) noexcept {
    const double scale = 1.0 + epsilon;
    Candidate c;
    c.time = cost.travel_time.value();
    c.shade = cost.shaded_time.value();
    c.energy = cost.energy_out.value();
    c.time_hi = c.time + kCriteriaEpsilon;
    c.shade_hi = c.shade + kCriteriaEpsilon;
    c.energy_hi = c.energy + kCriteriaEpsilon;
    c.time_merge = scale * c.time + kCriteriaEpsilon;
    c.shade_merge = scale * c.shade + kCriteriaEpsilon;
    c.energy_merge = scale * c.energy + kCriteriaEpsilon;
    return c;
  }
};

/// Running extremes over every row a bag has held: the largest travel
/// time, the smallest shaded time and the smallest energy. Every live
/// row lies within them, so a candidate that a row predicate's
/// comparison clears against the bound is cleared by every row:
///  - no_row_stops: each row is worse than the candidate in shaded time
///    or in energy (row > cost + kCriteriaEpsilon, and with `merge`
///    also row > (1 + epsilon) * cost + kCriteriaEpsilon), so
///    reject_rows (and merge_rows) is 0 on every block;
///  - no_row_dominated: the candidate is slower than every row
///    (cost > row + kCriteriaEpsilon), so dominated_rows is 0.
/// A NaN row makes the bound it enters NaN for good, and every test
/// against a NaN bound is false. Dropping rows leaves the bounds looser
/// than the live rows' extremes, never wrong.
struct BagBounds {
  double max_time = -std::numeric_limits<double>::infinity();
  double min_shade = std::numeric_limits<double>::infinity();
  double min_energy = std::numeric_limits<double>::infinity();

  void add(double time, double shade, double energy) noexcept {
    // std::max and std::min keep a NaN bound but pass over a NaN row. A
    // NaN row makes the sum NaN; only then is each criterion tested.
    max_time = std::max(max_time, time);
    min_shade = std::min(min_shade, shade);
    min_energy = std::min(min_energy, energy);
    if (std::isnan(time + shade + energy)) [[unlikely]] {
      if (std::isnan(time)) max_time = time;
      if (std::isnan(shade)) min_shade = shade;
      if (std::isnan(energy)) min_energy = energy;
    }
  }

  [[nodiscard]] bool no_row_stops(const Candidate& c,
                                  bool merge) const noexcept {
    const bool none_reject =
        (c.shade_hi < min_shade) | (c.energy_hi < min_energy);
    if (!merge) return none_reject;
    const bool none_merge =
        (c.shade_merge < min_shade) | (c.energy_merge < min_energy);
    return none_reject & none_merge;
  }

  [[nodiscard]] bool no_row_dominated(const Candidate& c) const noexcept {
    return c.time > max_time + kCriteriaEpsilon;
  }
};

// Every predicate returns a 4-bit mask (bit i = row i) restricted to
// the valid lanes:
//  - reject_rows: rows no worse than the candidate in any criterion,
//    i.e. equivalent(row, cost) || dominates(row, cost);
//  - merge_rows: rows that epsilon_dominates(row, cost, epsilon);
//  - dominated_rows: rows that dominates(cost, row) drops.
// The scan stops at the lowest set bit of reject_rows, or of
// reject_rows | merge_rows when epsilon > 0; that row merges the
// candidate only if it does not also reject it.

namespace scalar {

[[nodiscard]] inline unsigned reject_rows(const BagBlock& b, const Candidate& c,
                                          unsigned valid) noexcept {
  unsigned rows = 0;
  for (unsigned i = 0; i < 4; ++i) {
    const bool worse = (b.time[i] > c.time_hi) | (b.shade[i] > c.shade_hi) |
                       (b.energy[i] > c.energy_hi);
    rows |= static_cast<unsigned>(!worse) << i;
  }
  return rows & valid;
}

[[nodiscard]] inline unsigned merge_rows(const BagBlock& b, const Candidate& c,
                                         unsigned valid) noexcept {
  unsigned rows = 0;
  for (unsigned i = 0; i < 4; ++i) {
    const bool covers = (b.time[i] <= c.time_merge) &
                        (b.shade[i] <= c.shade_merge) &
                        (b.energy[i] <= c.energy_merge);
    rows |= static_cast<unsigned>(covers) << i;
  }
  return rows & valid;
}

[[nodiscard]] inline unsigned dominated_rows(const BagBlock& b,
                                             const Candidate& c,
                                             unsigned valid) noexcept {
  unsigned rows = 0;
  for (unsigned i = 0; i < 4; ++i) {
    const bool worse = (c.time > b.time[i] + kCriteriaEpsilon) |
                       (c.shade > b.shade[i] + kCriteriaEpsilon) |
                       (c.energy > b.energy[i] + kCriteriaEpsilon);
    const bool better = (c.time < b.time[i] - kCriteriaEpsilon) |
                        (c.shade < b.shade[i] - kCriteriaEpsilon) |
                        (c.energy < b.energy[i] - kCriteriaEpsilon);
    rows |= static_cast<unsigned>(better & !worse) << i;
  }
  return rows & valid;
}

}  // namespace scalar

#if defined(__SSE2__)

namespace sse2 {

/// Bits 0-1 from the lane pair of rows 0-1, bits 2-3 from rows 2-3.
[[nodiscard]] inline unsigned bits(__m128d rows01, __m128d rows23) noexcept {
  const int low = _mm_movemask_pd(rows01);
  const int high = _mm_movemask_pd(rows23);
  return static_cast<unsigned>(low | (high << 2));
}

[[nodiscard]] inline unsigned reject_rows(const BagBlock& b, const Candidate& c,
                                          unsigned valid) noexcept {
  const __m128d t = _mm_set1_pd(c.time_hi);
  const __m128d s = _mm_set1_pd(c.shade_hi);
  const __m128d e = _mm_set1_pd(c.energy_hi);
  auto worse = [&](int lane) {
    const __m128d time = _mm_cmpgt_pd(_mm_load_pd(b.time + lane), t);
    const __m128d shade = _mm_cmpgt_pd(_mm_load_pd(b.shade + lane), s);
    const __m128d energy = _mm_cmpgt_pd(_mm_load_pd(b.energy + lane), e);
    return _mm_or_pd(_mm_or_pd(time, shade), energy);
  };
  return ~bits(worse(0), worse(2)) & valid;
}

[[nodiscard]] inline unsigned merge_rows(const BagBlock& b, const Candidate& c,
                                         unsigned valid) noexcept {
  const __m128d t = _mm_set1_pd(c.time_merge);
  const __m128d s = _mm_set1_pd(c.shade_merge);
  const __m128d e = _mm_set1_pd(c.energy_merge);
  auto covers = [&](int lane) {
    const __m128d time = _mm_cmple_pd(_mm_load_pd(b.time + lane), t);
    const __m128d shade = _mm_cmple_pd(_mm_load_pd(b.shade + lane), s);
    const __m128d energy = _mm_cmple_pd(_mm_load_pd(b.energy + lane), e);
    return _mm_and_pd(_mm_and_pd(time, shade), energy);
  };
  return bits(covers(0), covers(2)) & valid;
}

[[nodiscard]] inline unsigned dominated_rows(const BagBlock& b,
                                             const Candidate& c,
                                             unsigned valid) noexcept {
  const __m128d tol = _mm_set1_pd(kCriteriaEpsilon);
  const __m128d t = _mm_set1_pd(c.time);
  const __m128d s = _mm_set1_pd(c.shade);
  const __m128d e = _mm_set1_pd(c.energy);
  auto dominated = [&](int lane) {
    const __m128d rt = _mm_load_pd(b.time + lane);
    const __m128d rs = _mm_load_pd(b.shade + lane);
    const __m128d re = _mm_load_pd(b.energy + lane);
    const __m128d worse_t = _mm_cmpgt_pd(t, _mm_add_pd(rt, tol));
    const __m128d worse_s = _mm_cmpgt_pd(s, _mm_add_pd(rs, tol));
    const __m128d worse_e = _mm_cmpgt_pd(e, _mm_add_pd(re, tol));
    const __m128d better_t = _mm_cmplt_pd(t, _mm_sub_pd(rt, tol));
    const __m128d better_s = _mm_cmplt_pd(s, _mm_sub_pd(rs, tol));
    const __m128d better_e = _mm_cmplt_pd(e, _mm_sub_pd(re, tol));
    const __m128d worse = _mm_or_pd(_mm_or_pd(worse_t, worse_s), worse_e);
    const __m128d better = _mm_or_pd(_mm_or_pd(better_t, better_s), better_e);
    return _mm_andnot_pd(worse, better);  // better & !worse
  };
  return bits(dominated(0), dominated(2)) & valid;
}

}  // namespace sse2

namespace block = sse2;

#else

namespace block = scalar;

#endif

}  // namespace sunchase::core::detail
