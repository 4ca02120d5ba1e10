#include "sunchase/core/criteria.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace sunchase::core {
namespace {

Criteria make(double tt, double st, double ec) {
  return Criteria{Seconds{tt}, Seconds{st}, WattHours{ec}};
}

TEST(Criteria, AdditionIsComponentWise) {
  const Criteria sum = make(10, 2, 5) + make(1, 3, 0.5);
  EXPECT_DOUBLE_EQ(sum.travel_time.value(), 11.0);
  EXPECT_DOUBLE_EQ(sum.shaded_time.value(), 5.0);
  EXPECT_DOUBLE_EQ(sum.energy_out.value(), 5.5);
}

TEST(Dominance, StrictlyBetterInAllDominates) {
  EXPECT_TRUE(dominates(make(1, 1, 1), make(2, 2, 2)));
  EXPECT_FALSE(dominates(make(2, 2, 2), make(1, 1, 1)));
}

TEST(Dominance, BetterInOneEqualElsewhereDominates) {
  EXPECT_TRUE(dominates(make(1, 5, 5), make(2, 5, 5)));
  EXPECT_TRUE(dominates(make(5, 5, 1), make(5, 5, 2)));
}

TEST(Dominance, EqualVectorsDoNotDominate) {
  EXPECT_FALSE(dominates(make(3, 3, 3), make(3, 3, 3)));
}

TEST(Dominance, IncomparableVectorsNeitherDominates) {
  const Criteria a = make(1, 9, 5);
  const Criteria b = make(9, 1, 5);
  EXPECT_FALSE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
}

TEST(Dominance, EpsilonTiesAreNotStrict) {
  const Criteria a = make(1.0, 1.0, 1.0);
  const Criteria b = make(1.0 + 1e-12, 1.0, 1.0);
  EXPECT_FALSE(dominates(a, b));  // difference below tolerance
  EXPECT_TRUE(equivalent(a, b));
}

TEST(Dominance, MatchesTheFuzzyCmpDefinitionAtTheEdges) {
  // dominates() is written without branches; it must agree with "no
  // fuzzy_cmp > 0 and some fuzzy_cmp < 0" everywhere, including exactly
  // at the tolerance, one ulp either side of it, and non-finite values.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double eps = kCriteriaEpsilon;
  const std::vector<double> values = {
      0.0, 1.0, 1.0 + eps, 1.0 - eps, std::nextafter(1.0 + eps, 2.0),
      std::nextafter(1.0 - eps, 0.0), 86400.0, 86400.0 + eps, inf, -inf, nan};
  auto by_definition = [](const Criteria& a, const Criteria& b) {
    using detail::fuzzy_cmp;
    const int c1 = fuzzy_cmp(a.travel_time.value(), b.travel_time.value());
    const int c2 = fuzzy_cmp(a.shaded_time.value(), b.shaded_time.value());
    const int c3 = fuzzy_cmp(a.energy_out.value(), b.energy_out.value());
    if (c1 > 0 || c2 > 0 || c3 > 0) return false;
    return c1 < 0 || c2 < 0 || c3 < 0;
  };
  for (const double a1 : values)
    for (const double b1 : values)
      for (const double a2 : {1.0, 2.0})
        for (const double b2 : {1.0, 1.0 + eps, 2.0}) {
          const Criteria a = make(a1, a2, 1.0);
          const Criteria b = make(b1, b2, 1.0);
          EXPECT_EQ(dominates(a, b), by_definition(a, b))
              << a1 << "," << a2 << " vs " << b1 << "," << b2;
        }
}

TEST(Equivalent, DetectsNearEquality) {
  EXPECT_TRUE(equivalent(make(1, 2, 3), make(1, 2, 3)));
  EXPECT_FALSE(equivalent(make(1, 2, 3), make(1, 2, 3.001)));
}

TEST(LexLess, OrdersByTravelTimeFirst) {
  EXPECT_TRUE(lex_less(make(1, 9, 9), make(2, 0, 0)));
  EXPECT_FALSE(lex_less(make(2, 0, 0), make(1, 9, 9)));
}

TEST(LexLess, TieBreaksByShadedTimeThenEnergy) {
  EXPECT_TRUE(lex_less(make(1, 2, 9), make(1, 3, 0)));
  EXPECT_TRUE(lex_less(make(1, 2, 3), make(1, 2, 4)));
  EXPECT_FALSE(lex_less(make(1, 2, 3), make(1, 2, 3)));
}

// Property: dominance is a strict partial order — irreflexive,
// asymmetric, transitive — over a deterministic sample.
class DominanceOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(DominanceOrderProperty, PartialOrderAxioms) {
  unsigned state = static_cast<unsigned>(GetParam()) * 2654435761u + 7u;
  auto next = [&]() {
    state = state * 1664525u + 1013904223u;
    return (state >> 8) % 5;  // small grid of values forces ties
  };
  const Criteria a = make(next(), next(), next());
  const Criteria b = make(next(), next(), next());
  const Criteria c = make(next(), next(), next());
  EXPECT_FALSE(dominates(a, a));
  if (dominates(a, b)) {
    EXPECT_FALSE(dominates(b, a));
  }
  if (dominates(a, b) && dominates(b, c)) {
    EXPECT_TRUE(dominates(a, c));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTriples, DominanceOrderProperty,
                         ::testing::Range(1, 60));

}  // namespace
}  // namespace sunchase::core
