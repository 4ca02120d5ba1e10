// The block predicates of the MLC bag scan (detail/bag_block.h) on
// hand-built blocks. Three things must hold: the scalar form gives, lane
// by lane, what criteria.h says of each row; the SSE2 form, where the
// target has it, gives the scalar form's masks; and a scan over blocks
// stops at the row the row-by-row rule stops at, after reading as many
// rows (the kernel's dominance_checks), merging exactly when it merges.
// A bag's BagBounds may skip a pass only when that pass would find no
// row, and where one criterion alone decides, exactly then.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "sunchase/core/detail/bag_block.h"

namespace sunchase::core::detail {
namespace {

Criteria make(double tt, double st, double ec) {
  return Criteria{Seconds{tt}, Seconds{st}, WattHours{ec}};
}

/// `rows` in creation order, four to a block, as the kernel stores them.
std::vector<BagBlock> blocks_of(const std::vector<Criteria>& rows) {
  std::vector<BagBlock> blocks((rows.size() + 3) / 4);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    BagBlock& b = blocks[i / 4];
    b.time[i % 4] = rows[i].travel_time.value();
    b.shade[i % 4] = rows[i].shaded_time.value();
    b.energy[i % 4] = rows[i].energy_out.value();
    b.label[i % 4] = static_cast<std::uint32_t>(i);
  }
  return blocks;
}

/// Valid-lane mask of block `b` of a bag holding `size` rows.
unsigned valid_lanes(std::size_t size, std::size_t b) {
  const std::size_t left = size - 4 * b;
  return left >= 4 ? kFullBlock : (1u << left) - 1u;
}

bool bit(unsigned mask, std::size_t lane) {
  return ((mask >> lane) & 1u) != 0;
}

/// Every mask a predicate form gives for one block.
struct Masks {
  unsigned reject = 0;
  unsigned merge = 0;
  unsigned dominated = 0;
};

Masks scalar_masks(const BagBlock& b, const Candidate& c, unsigned valid) {
  Masks m;
  m.reject = scalar::reject_rows(b, c, valid);
  m.merge = scalar::merge_rows(b, c, valid);
  m.dominated = scalar::dominated_rows(b, c, valid);
  return m;
}

#if defined(__SSE2__)
Masks sse2_masks(const BagBlock& b, const Candidate& c, unsigned valid) {
  Masks m;
  m.reject = sse2::reject_rows(b, c, valid);
  m.merge = sse2::merge_rows(b, c, valid);
  m.dominated = sse2::dominated_rows(b, c, valid);
  return m;
}
#endif

/// What a bag scan reports: rows read, and whether and how it stopped.
struct Scan {
  std::size_t checks = 0;
  bool stopped = false;
  bool merged = false;
};

/// The row-by-row rule of Algorithm 1's insert, from criteria.h.
Scan row_scan(const std::vector<Criteria>& rows, const Criteria& cost,
              double epsilon) {
  Scan scan;
  for (const Criteria& row : rows) {
    ++scan.checks;
    if (equivalent(row, cost) || dominates(row, cost)) {
      scan.stopped = true;
      return scan;
    }
    if (epsilon > 0.0 && epsilon_dominates(row, cost, epsilon)) {
      scan.stopped = scan.merged = true;
      return scan;
    }
  }
  return scan;
}

/// The kernel's scan: whole blocks, in the form the build calls.
Scan block_scan(const std::vector<Criteria>& rows, const Criteria& cost,
                double epsilon) {
  const std::vector<BagBlock> blocks = blocks_of(rows);
  const Candidate c = Candidate::of(cost, epsilon);
  Scan scan;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const unsigned valid = valid_lanes(rows.size(), b);
    const unsigned rejects = block::reject_rows(blocks[b], c, valid);
    unsigned stop = rejects;
    if (epsilon > 0.0) stop |= block::merge_rows(blocks[b], c, valid);
    if (stop == 0) continue;
    const auto lane = static_cast<std::size_t>(std::countr_zero(stop));
    scan.checks = 4 * b + lane + 1;
    scan.stopped = true;
    scan.merged = !bit(rejects, lane);
    return scan;
  }
  scan.checks = rows.size();
  return scan;
}

/// The bounds a bag holding `rows` keeps: each row added once.
BagBounds bounds_of(const std::vector<Criteria>& rows) {
  BagBounds bounds;
  for (const Criteria& row : rows)
    bounds.add(row.travel_time.value(), row.shaded_time.value(),
               row.energy_out.value());
  return bounds;
}

/// Whether the kernel's dominated-row pass would drop any of `rows`.
bool any_dominated(const std::vector<Criteria>& rows, const Criteria& cost) {
  const std::vector<BagBlock> blocks = blocks_of(rows);
  const Candidate c = Candidate::of(cost, 0.0);
  for (std::size_t b = 0; b < blocks.size(); ++b)
    if (block::dominated_rows(blocks[b], c, valid_lanes(rows.size(), b)) != 0)
      return true;
  return false;
}

/// A shortcut taken only where the pass it skips finds nothing.
void expect_sound(const BagBounds& bounds, const std::vector<Criteria>& rows,
                  const Criteria& cost, double epsilon,
                  const std::string& what) {
  const Candidate c = Candidate::of(cost, epsilon);
  if (bounds.no_row_stops(c, epsilon > 0.0)) {
    EXPECT_FALSE(block_scan(rows, cost, epsilon).stopped) << what;
  }
  if (bounds.no_row_dominated(c)) {
    EXPECT_FALSE(any_dominated(rows, cost)) << what;
  }
}

/// Both forms on every block of `rows` against `cost`, lane by lane
/// against criteria.h, the block scan against the row scan, and the
/// bag's bounds against both passes.
void expect_agree(const std::vector<Criteria>& rows, const Criteria& cost,
                  double epsilon, const std::string& what) {
  const std::vector<BagBlock> blocks = blocks_of(rows);
  const Candidate c = Candidate::of(cost, epsilon);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const unsigned valid = valid_lanes(rows.size(), b);
    const Masks scalar = scalar_masks(blocks[b], c, valid);
    for (std::size_t lane = 0; lane < 4; ++lane) {
      const std::string at = what + " row " + std::to_string(4 * b + lane);
      if (!bit(valid, lane)) {
        EXPECT_FALSE(bit(scalar.reject, lane)) << at;
        EXPECT_FALSE(bit(scalar.merge, lane)) << at;
        EXPECT_FALSE(bit(scalar.dominated, lane)) << at;
        continue;
      }
      const Criteria& row = rows[4 * b + lane];
      const bool rejects = equivalent(row, cost) || dominates(row, cost);
      const bool covers = epsilon_dominates(row, cost, epsilon);
      EXPECT_EQ(bit(scalar.reject, lane), rejects) << at;
      EXPECT_EQ(bit(scalar.merge, lane), covers) << at;
      EXPECT_EQ(bit(scalar.dominated, lane), dominates(cost, row)) << at;
    }
#if defined(__SSE2__)
    const Masks sse2 = sse2_masks(blocks[b], c, valid);
    EXPECT_EQ(sse2.reject, scalar.reject) << what << " block " << b;
    EXPECT_EQ(sse2.merge, scalar.merge) << what << " block " << b;
    EXPECT_EQ(sse2.dominated, scalar.dominated) << what << " block " << b;
#endif
  }
  const Scan by_rows = row_scan(rows, cost, epsilon);
  const Scan by_blocks = block_scan(rows, cost, epsilon);
  EXPECT_EQ(by_blocks.checks, by_rows.checks) << what;
  EXPECT_EQ(by_blocks.stopped, by_rows.stopped) << what;
  EXPECT_EQ(by_blocks.merged, by_rows.merged) << what;
  expect_sound(bounds_of(rows), rows, cost, epsilon, what);
}

const Criteria kCost = make(100.0, 50.0, 10.0);
/// Worse than kCost in shade only: neither rejects, merges at
/// epsilon 0.05, nor is dominated.
const Criteria kPasses = make(90.0, 80.0, 9.0);
/// Worse than kCost in every criterion: kCost drops it.
const Criteria kDominated = make(110.0, 60.0, 12.0);
/// 2% worse in time: only an epsilon 0.05 merge stops the scan at it.
const Criteria kMergeOnly = make(102.0, 50.0, 10.0);

TEST(BagBlock, EqualRowStopsTheScan) {
  for (const double epsilon : {0.0, 0.05}) {
    expect_agree({kPasses, kCost}, kCost, epsilon, "equal");
    const std::vector<Criteria> rows = {kPasses, kPasses, kCost, kPasses};
    const Scan scan = block_scan(rows, kCost, epsilon);
    EXPECT_TRUE(scan.stopped);
    EXPECT_FALSE(scan.merged);
    EXPECT_EQ(scan.checks, 3u);
  }
}

TEST(BagBlock, RowsOneToleranceAwayInOneCriterion) {
  // Exactly kCriteriaEpsilon above the candidate is still a tie (the
  // row is not worse); exactly below it is a tie too. One ulp past the
  // tolerance above makes the row worse in that criterion.
  const double t = kCost.travel_time.value();
  const double s = kCost.shaded_time.value();
  const double e = kCost.energy_out.value();
  const double eps = kCriteriaEpsilon;
  const std::vector<Criteria> rows = {
      make(t + eps, s, e),
      make(t - eps, s, e),
      make(t, s + eps, e),
      make(t, s - eps, e),
      make(t, s, e + eps),
      make(t, s, e - eps),
      make(std::nextafter(t + eps, 1e9), s, e),
      make(t, std::nextafter(s + eps, 1e9), e),
      make(t, s, std::nextafter(e + eps, 1e9)),
      make(std::nextafter(t - eps, 0.0), s, e),
  };
  EXPECT_TRUE(block_scan({rows[0]}, kCost, 0.0).stopped);
  EXPECT_TRUE(block_scan({rows[1]}, kCost, 0.0).stopped);
  EXPECT_FALSE(block_scan({rows[6]}, kCost, 0.0).stopped);
  for (const double epsilon : {0.0, 0.05})
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string row = std::to_string(i);
      expect_agree({rows[i]}, kCost, epsilon, "row " + row);
      std::vector<Criteria> late(5, kPasses);
      late.push_back(rows[i]);
      expect_agree(late, kCost, epsilon, "late row " + row);
      // The same rows as the candidate, and the candidate as the row.
      expect_agree({kCost}, rows[i], epsilon, "candidate " + row);
    }
  expect_agree(rows, kCost, 0.0, "all");
}

TEST(BagBlock, StopRowInEveryLane) {
  for (std::size_t before = 0; before < 12; ++before) {
    std::vector<Criteria> rows(before, kPasses);
    rows.push_back(kCost);
    rows.push_back(kPasses);
    rows.push_back(kDominated);
    for (const double epsilon : {0.0, 0.05}) {
      expect_agree(rows, kCost, epsilon, "stop at " + std::to_string(before));
      EXPECT_EQ(block_scan(rows, kCost, epsilon).checks, before + 1);
    }
  }
}

TEST(BagBlock, PartialLastBlockLanesNeitherStopNorDie) {
  // The unused lanes of the last block hold a value-initialized zero
  // row, or a row an earlier compaction left behind: either would stop
  // the scan or be dropped if it counted.
  for (std::size_t size = 1; size <= 11; ++size) {
    if (size % 4 == 0) continue;
    std::vector<Criteria> rows(size, kPasses);
    std::vector<BagBlock> blocks = blocks_of(rows);
    const std::size_t last = blocks.size() - 1;
    const unsigned valid = valid_lanes(size, last);
    const Candidate c = Candidate::of(kCost, 0.05);
    const unsigned unused = kFullBlock & ~valid;
    // Value-initialized lanes: (0, 0, 0) rejects any positive cost.
    EXPECT_EQ(scalar::reject_rows(blocks[last], c, kFullBlock), unused);
    EXPECT_EQ(scalar::merge_rows(blocks[last], c, kFullBlock), unused);
    EXPECT_EQ(block::reject_rows(blocks[last], c, valid), 0u);
    EXPECT_EQ(block::merge_rows(blocks[last], c, valid), 0u);
    // Stale lanes: a row the candidate dominates.
    for (std::size_t lane = size % 4; lane < 4; ++lane) {
      blocks[last].time[lane] = kDominated.travel_time.value();
      blocks[last].shade[lane] = kDominated.shaded_time.value();
      blocks[last].energy[lane] = kDominated.energy_out.value();
    }
    EXPECT_EQ(scalar::dominated_rows(blocks[last], c, kFullBlock), unused);
    EXPECT_EQ(block::dominated_rows(blocks[last], c, valid), 0u);
    EXPECT_EQ(scalar::dominated_rows(blocks[last], c, valid), 0u);
    for (const double epsilon : {0.0, 0.05}) {
      const Scan scan = block_scan(rows, kCost, epsilon);
      EXPECT_FALSE(scan.stopped) << size;
      EXPECT_EQ(scan.checks, size);
      expect_agree(rows, kCost, epsilon, "size " + std::to_string(size));
    }
  }
}

TEST(BagBlock, MergeAndExactStopOnOneRow) {
  // kCost both rejects itself and epsilon-covers itself: the exact test
  // wins, so the scan stops there without counting a merge.
  for (const std::size_t before : {0u, 3u, 5u}) {
    std::vector<Criteria> rows(before, kPasses);
    rows.push_back(kCost);
    const Scan scan = block_scan(rows, kCost, 0.05);
    EXPECT_TRUE(scan.stopped);
    EXPECT_FALSE(scan.merged);
    EXPECT_EQ(scan.checks, before + 1);
    expect_agree(rows, kCost, 0.05, "both " + std::to_string(before));
  }
  // kMergeOnly merges at epsilon 0.05 and passes at epsilon 0.
  for (const std::size_t before : {0u, 3u, 5u}) {
    std::vector<Criteria> rows(before, kPasses);
    rows.push_back(kMergeOnly);
    rows.push_back(kCost);
    const Scan merged = block_scan(rows, kCost, 0.05);
    EXPECT_TRUE(merged.merged);
    EXPECT_EQ(merged.checks, before + 1);
    const Scan exact = block_scan(rows, kCost, 0.0);
    EXPECT_FALSE(exact.merged);
    EXPECT_EQ(exact.checks, before + 2);
    for (const double epsilon : {0.0, 0.05})
      expect_agree(rows, kCost, epsilon, "merge " + std::to_string(before));
  }
}

TEST(BagBlock, DominatedRowsAcrossBlocks) {
  std::vector<Criteria> rows;
  for (const char kind : std::string("PDPDDPPPD"))
    rows.push_back(kind == 'D' ? kDominated : kPasses);
  const std::vector<BagBlock> blocks = blocks_of(rows);
  const Candidate c = Candidate::of(kCost, 0.0);
  EXPECT_EQ(block::dominated_rows(blocks[0], c, kFullBlock), 0b1010u);
  EXPECT_EQ(block::dominated_rows(blocks[1], c, kFullBlock), 0b0001u);
  EXPECT_EQ(block::dominated_rows(blocks[2], c, valid_lanes(9, 2)), 0b0001u);
  for (const double epsilon : {0.0, 0.05})
    expect_agree(rows, kCost, epsilon, "dominated");
}

TEST(BagBlock, EveryOffsetCombinationAndNaN) {
  // Each criterion of a row at one of these offsets from the candidate's,
  // NaN included: 343 rows, 86 blocks, every lane of every mask.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double eps = kCriteriaEpsilon;
  const double offsets[] = {-1.0, -eps, -0.5 * eps, 0.0, eps, 2 * eps, nan};
  const double t = kCost.travel_time.value();
  const double s = kCost.shaded_time.value();
  const double e = kCost.energy_out.value();
  std::vector<Criteria> rows;
  for (const double dt : offsets)
    for (const double ds : offsets)
      for (const double de : offsets)
        rows.push_back(make(t + dt, s + ds, e + de));
  // Every suffix seven rows apart, so stop rows land in every lane.
  for (const double epsilon : {0.0, 1e-12, 0.05})
    for (std::size_t first = 0; first < rows.size(); first += 7) {
      const auto from = rows.begin() + static_cast<std::ptrdiff_t>(first);
      const std::vector<Criteria> suffix(from, rows.end());
      expect_agree(suffix, kCost, epsilon, "from " + std::to_string(first));
    }
  // A NaN candidate: every comparison with it is false.
  const Criteria nan_cost = make(nan, 50.0, 10.0);
  const std::vector<Criteria> bag = {kPasses, kDominated, kCost};
  for (const double epsilon : {0.0, 0.05})
    expect_agree(bag, nan_cost, epsilon, "NaN candidate");
}

/// Rows spread over three blocks, ragged last block. Extremes: time 130
/// (row 5), shade 20 (row 2), energy 4 (row 8).
const std::vector<Criteria> kBag = {
    make(100.0, 60.0, 9.0),  make(110.0, 45.0, 7.0), make(120.0, 20.0, 12.0),
    make(90.0, 70.0, 5.0),   make(105.0, 33.0, 8.0), make(130.0, 25.0, 6.0),
    make(95.0, 50.0, 11.0),  make(115.0, 40.0, 10.0), make(125.0, 80.0, 4.0)};

/// Candidate values around where `bound` (a row value) stops clearing:
/// just clear of the tolerance, on it and just inside it, both sides.
std::vector<double> around(double bound) {
  const double below = bound - kCriteriaEpsilon;
  const double above = bound + kCriteriaEpsilon;
  return {2 * below - bound, std::nextafter(below, 0.0), below,
          std::nextafter(below, 1e9), bound, above, std::nextafter(above, 1e9),
          2 * above - bound};
}

TEST(BagBlock, RejectShortcutFiresExactlyWhenNoRowStopsInShadeOrEnergy) {
  // A candidate slower and hungrier than every row: only shade (or only
  // energy) can clear a row, so the bound decides exactly.
  const BagBounds bounds = bounds_of(kBag);
  EXPECT_EQ(bounds.max_time, 130.0);
  EXPECT_EQ(bounds.min_shade, 20.0);
  EXPECT_EQ(bounds.min_energy, 4.0);
  for (const double epsilon : {0.0, 0.05}) {
    std::size_t fired = 0;
    std::size_t scanned = 0;
    for (const bool by_shade : {true, false}) {
      const double bound = by_shade ? bounds.min_shade : bounds.min_energy;
      for (const double v : around(bound / (1.0 + epsilon))) {
        const Criteria cost =
            by_shade ? make(500.0, v, 500.0) : make(500.0, 500.0, v);
        const bool skip =
            bounds.no_row_stops(Candidate::of(cost, epsilon), epsilon > 0.0);
        EXPECT_EQ(skip, !block_scan(kBag, cost, epsilon).stopped)
            << (by_shade ? "shade " : "energy ") << v << " eps " << epsilon;
        (skip ? fired : scanned) += 1;
      }
    }
    EXPECT_GT(fired, 0u) << epsilon;
    EXPECT_GT(scanned, 0u) << epsilon;
  }
  // At epsilon 0: two tolerances below the row clear it, on it is a tie.
  const double min_shade = bounds.min_shade;
  EXPECT_TRUE(bounds.no_row_stops(
      Candidate::of(make(500.0, min_shade - 2 * kCriteriaEpsilon, 500.0), 0.0),
      false));
  EXPECT_FALSE(bounds.no_row_stops(
      Candidate::of(make(500.0, min_shade, 500.0), 0.0), false));
}

TEST(BagBlock, MergeShortcutNeedsBothBoundsClear) {
  // Just under the shade bound at epsilon 0 but within 5 % of it: the
  // reject test clears, the merge test does not, and row 2 merges.
  const BagBounds bounds = bounds_of(kBag);
  const Criteria cost = make(500.0, 19.5, 500.0);
  const Candidate exact = Candidate::of(cost, 0.0);
  const Candidate relaxed = Candidate::of(cost, 0.05);
  EXPECT_TRUE(bounds.no_row_stops(exact, false));
  EXPECT_FALSE(block_scan(kBag, cost, 0.0).stopped);
  EXPECT_TRUE(bounds.no_row_stops(relaxed, false));
  EXPECT_FALSE(bounds.no_row_stops(relaxed, true));
  const Scan merged = block_scan(kBag, cost, 0.05);
  EXPECT_TRUE(merged.merged);
  EXPECT_EQ(merged.checks, 3u);
}

TEST(BagBlock, DominatedShortcutFiresExactlyWhenNoRowIsDominated) {
  // A candidate better than every row in shade and energy: only travel
  // time can keep a row, so the bound decides exactly.
  const BagBounds bounds = bounds_of(kBag);
  std::size_t fired = 0;
  std::size_t scanned = 0;
  for (const double time : around(bounds.max_time)) {
    const Criteria cost = make(time, 1.0, 1.0);
    const bool skip = bounds.no_row_dominated(Candidate::of(cost, 0.0));
    EXPECT_EQ(skip, !any_dominated(kBag, cost)) << time;
    (skip ? fired : scanned) += 1;
  }
  EXPECT_EQ(fired, 2u);  // one ulp and one tolerance past it
  EXPECT_EQ(scanned, 6u);
  const double past = std::nextafter(bounds.max_time + kCriteriaEpsilon, 1e9);
  EXPECT_TRUE(bounds.no_row_dominated(Candidate::of(make(past, 1, 1), 0.0)));
  EXPECT_FALSE(bounds.no_row_dominated(
      Candidate::of(make(bounds.max_time + kCriteriaEpsilon, 1, 1), 0.0)));
}

TEST(BagBlock, NaNRowDisablesItsBoundForGood) {
  // A NaN criterion compares false, so the row never counts as worse in
  // it: it stops a scan, or is dominated, where the bound alone would
  // have skipped the pass.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Criteria rejected_by_shade = make(500.0, 10.0, 500.0);
  const Criteria rejected_by_energy = make(500.0, 500.0, 2.0);
  const Criteria kills_by_time = make(200.0, 1.0, 1.0);
  struct Case {
    const char* criterion;
    Criteria nan_row;
    Criteria cost;
  };
  const Case cases[] = {
      {"shade", make(100.0, nan, 3.0), rejected_by_shade},
      {"energy", make(100.0, 10.0, nan), rejected_by_energy},
      {"time", make(nan, 30.0, 6.0), kills_by_time},
  };
  for (const Case& k : cases) {
    const std::string what = k.criterion;
    const Candidate c = Candidate::of(k.cost, 0.0);
    std::vector<Criteria> rows = kBag;
    const BagBounds clean = bounds_of(rows);
    rows.insert(rows.begin() + 4, k.nan_row);
    // More rows after the NaN row leave the bound NaN.
    rows.push_back(make(80.0, 15.0, 3.0));
    const BagBounds poisoned = bounds_of(rows);
    if (what == "time") {
      EXPECT_TRUE(clean.no_row_dominated(c)) << what;
      EXPECT_TRUE(std::isnan(poisoned.max_time)) << what;
      EXPECT_FALSE(poisoned.no_row_dominated(c)) << what;
      EXPECT_TRUE(any_dominated(rows, k.cost)) << what;
    } else {
      EXPECT_TRUE(clean.no_row_stops(c, false)) << what;
      EXPECT_TRUE(std::isnan(what == "shade" ? poisoned.min_shade
                                             : poisoned.min_energy))
          << what;
      EXPECT_FALSE(poisoned.no_row_stops(c, false)) << what;
      EXPECT_FALSE(poisoned.no_row_stops(Candidate::of(k.cost, 0.05), true))
          << what;
      const Scan scan = block_scan(rows, k.cost, 0.0);
      EXPECT_TRUE(scan.stopped) << what;
      EXPECT_EQ(scan.checks, 5u) << what;
    }
    for (const double epsilon : {0.0, 0.05})
      expect_agree(rows, k.cost, epsilon, "NaN " + what);
  }
}

TEST(BagBlock, BoundsLeftByACompactionAreLooseNotWrong) {
  // The kernel keeps a bag's bounds through a compaction. Dropping the
  // rows that set them leaves every bound looser than the live rows'
  // extremes: the shortcuts fire less often, never wrongly.
  std::vector<Criteria> rows = kBag;
  const BagBounds stale = bounds_of(rows);
  rows.erase(rows.begin() + 8);  // energy 4
  rows.erase(rows.begin() + 5);  // time 130
  rows.erase(rows.begin() + 2);  // shade 20
  const BagBounds tight = bounds_of(rows);
  EXPECT_EQ(tight.max_time, 115.0);
  EXPECT_EQ(tight.min_shade, 33.0);
  EXPECT_EQ(tight.min_energy, 5.0);
  std::size_t stale_skips = 0;
  std::size_t tight_skips = 0;
  for (const double time : {100.0, 120.0, 140.0})
    for (const double shade : {10.0, 25.0, 40.0})
      for (const double energy : {3.0, 4.5, 8.0})
        for (const double epsilon : {0.0, 0.05}) {
          const Criteria cost = make(time, shade, energy);
          const Candidate c = Candidate::of(cost, epsilon);
          const bool merge = epsilon > 0.0;
          const std::string what = std::to_string(time) + "," +
                                   std::to_string(shade) + "," +
                                   std::to_string(energy);
          expect_sound(stale, rows, cost, epsilon, "stale " + what);
          expect_sound(tight, rows, cost, epsilon, "tight " + what);
          // Whatever the stale bounds skip, the tight ones skip too.
          if (stale.no_row_stops(c, merge)) {
            EXPECT_TRUE(tight.no_row_stops(c, merge)) << what;
          }
          if (stale.no_row_dominated(c)) {
            EXPECT_TRUE(tight.no_row_dominated(c)) << what;
          }
          stale_skips += stale.no_row_stops(c, merge) ? 1u : 0u;
          stale_skips += stale.no_row_dominated(c) ? 1u : 0u;
          tight_skips += tight.no_row_stops(c, merge) ? 1u : 0u;
          tight_skips += tight.no_row_dominated(c) ? 1u : 0u;
        }
  EXPECT_GT(stale_skips, 0u);
  EXPECT_GT(tight_skips, stale_skips);
}

TEST(BagBlock, EmptyBagSkipsBothPasses) {
  const BagBounds empty;
  const Candidate c = Candidate::of(kCost, 0.05);
  EXPECT_TRUE(empty.no_row_stops(c, true));
  EXPECT_TRUE(empty.no_row_dominated(c));
  // A NaN candidate compares false with any bound: no shortcut.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Candidate n = Candidate::of(make(nan, nan, nan), 0.0);
  EXPECT_FALSE(empty.no_row_stops(n, false));
  EXPECT_FALSE(empty.no_row_dominated(n));
}

}  // namespace
}  // namespace sunchase::core::detail
