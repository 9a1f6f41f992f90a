#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace gnna {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0U);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5U);
  c.reset();
  EXPECT_EQ(c.value(), 0U);
}

TEST(Accumulator, EmptyIsSafe) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0U);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, MeanMinMax) {
  Accumulator a;
  for (double x : {3.0, 1.0, 2.0}) a.add(x);
  EXPECT_EQ(a.count(), 3U);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
  EXPECT_DOUBLE_EQ(a.sum(), 6.0);
}

TEST(Accumulator, Stddev) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_NEAR(a.stddev(), 2.138, 0.001);  // sample stddev
}

TEST(Accumulator, SingleSampleStddevZero) {
  Accumulator a;
  a.add(5.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, StddevStableUnderLargeOffset) {
  // Regression: the old sum-of-squares formula cancels catastrophically
  // when mean >> stddev (e.g. cycle timestamps around 1e9). Welford's
  // update must recover stddev = 1 to several digits; the naive formula
  // gets 0 or worse (sqrt of a negative difference clamped).
  Accumulator a;
  const double offset = 1e9;
  // 1000 samples alternating offset ± 1: mean = offset, sample var ≈ 1.
  for (int i = 0; i < 1000; ++i) a.add(offset + (i % 2 == 0 ? 1.0 : -1.0));
  EXPECT_NEAR(a.mean(), offset, 1e-6);
  EXPECT_NEAR(a.stddev(), 1.0, 1e-3);
}

TEST(Accumulator, AddIsExactlyUnitWeight) {
  // add(x) must stay bit-identical to add_weighted(x, 1.0): golden cycle
  // pins depend on the unweighted path not changing.
  Accumulator a;
  Accumulator b;
  for (double x : {3.0, 1.0, 1e9, -2.5, 0.0}) {
    a.add(x);
    b.add_weighted(x, 1.0);
  }
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.stddev(), b.stddev());
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.weight(), static_cast<double>(a.count()));
}

TEST(Accumulator, WeightedMeanIsWeightDenominated) {
  // Three cycles at depth 1, one cycle at depth 5: the time-weighted mean
  // is 2.0, not the change-weighted (1+5)/2 = 3.
  Accumulator a;
  a.add_weighted(1.0, 3.0);
  a.add_weighted(5.0, 1.0);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.sum(), 8.0);
  EXPECT_DOUBLE_EQ(a.weight(), 4.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(Accumulator, ZeroWeightSampleOnlyUpdatesExtrema) {
  Accumulator a;
  a.add_weighted(2.0, 10.0);
  a.add_weighted(7.0, 0.0);  // records the extremum, accrues no time
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 7.0);
  EXPECT_DOUBLE_EQ(a.weight(), 10.0);
  EXPECT_EQ(a.count(), 2U);
}

TEST(Accumulator, StddevMatchesBruteForce) {
  // Cross-check Welford against the two-pass definition on a spread-out
  // sample set with a large common offset.
  std::vector<double> xs;
  double sum = 0.0;
  for (int i = 0; i < 257; ++i) {
    xs.push_back(5e8 + 1000.0 * std::sin(0.7 * i) + i);
    sum += xs.back();
  }
  const double mean = sum / static_cast<double>(xs.size());
  double m2 = 0.0;
  for (const double x : xs) m2 += (x - mean) * (x - mean);
  const double expected =
      std::sqrt(m2 / (static_cast<double>(xs.size()) - 1.0));

  Accumulator a;
  for (const double x : xs) a.add(x);
  EXPECT_NEAR(a.stddev(), expected, expected * 1e-9);
}

}  // namespace
}  // namespace gnna
