// The block predicates of the MLC bag scan (detail/bag_block.h) on
// hand-built blocks. Three things must hold: the scalar form gives, lane
// by lane, what criteria.h says of each row; the SSE2 form, where the
// target has it, gives the scalar form's masks; and a scan over blocks
// stops at the row the row-by-row rule stops at, after reading as many
// rows (the kernel's dominance_checks), merging exactly when it merges.
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

/// Both forms on every block of `rows` against `cost`, lane by lane
/// against criteria.h, and the block scan against the row scan.
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

}  // namespace
}  // namespace sunchase::core::detail
