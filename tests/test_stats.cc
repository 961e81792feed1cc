#include "util/stats.h"

#include <gtest/gtest.h>

#include "util/strings.h"

namespace lg::util {
namespace {

TEST(SummaryTest, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SummaryTest, MeanVarianceMinMax) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.5714, 1e-3);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryTest, MergeEqualsCombinedStream) {
  Summary a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.7;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(SummaryTest, MergeEmptyIntoNonEmptyIsIdentity) {
  Summary a, empty;
  for (const double x : {1.0, 2.0, 3.0}) a.add(x);
  a.merge(empty);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_EQ(a.min(), 1.0);
  EXPECT_EQ(a.max(), 3.0);
}

TEST(SummaryTest, MergeNonEmptyIntoEmptyCopies) {
  Summary empty, b;
  for (const double x : {4.0, 6.0}) b.add(x);
  empty.merge(b);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
  EXPECT_EQ(empty.min(), 4.0);
  EXPECT_EQ(empty.max(), 6.0);
  EXPECT_NEAR(empty.variance(), b.variance(), 1e-12);
}

TEST(SummaryTest, MergeTwoEmptiesStaysEmpty) {
  Summary a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(EmpiricalCdfTest, CdfAndQuantiles) {
  EmpiricalCdf c;
  for (int i = 1; i <= 100; ++i) c.add(i);
  EXPECT_DOUBLE_EQ(c.cdf(50), 0.5);
  EXPECT_DOUBLE_EQ(c.cdf(0), 0.0);
  EXPECT_DOUBLE_EQ(c.cdf(100), 1.0);
  EXPECT_EQ(c.quantile(0.5), 50.0);
  EXPECT_EQ(c.quantile(0.0), 1.0);
  EXPECT_EQ(c.quantile(1.0), 100.0);
  EXPECT_EQ(c.median(), 50.0);
}

TEST(EmpiricalCdfTest, MassFractionAbove) {
  EmpiricalCdf c;
  // Nine short outages of 1 unit, one long of 91: the long one is 91% of
  // total mass — the Fig. 1 dotted-line computation.
  for (int i = 0; i < 9; ++i) c.add(1.0);
  c.add(91.0);
  EXPECT_NEAR(c.mass_fraction_above(1.0), 0.91, 1e-9);
  EXPECT_NEAR(c.mass_fraction_above(100.0), 0.0, 1e-9);
  EXPECT_NEAR(c.mass_fraction_above(0.5), 1.0, 1e-9);
}

TEST(EmpiricalCdfTest, MeanResidual) {
  EmpiricalCdf c;
  c.add(10.0);
  c.add(20.0);
  c.add(30.0);
  // Survivors past 15: {20, 30}; residuals {5, 15}; mean 10.
  EXPECT_DOUBLE_EQ(c.mean_residual(15.0), 10.0);
  EXPECT_EQ(c.count_above(15.0), 2u);
  EXPECT_DOUBLE_EQ(c.residual_quantile(15.0, 0.5), 5.0);
}

TEST(EmpiricalCdfTest, EmptyIsSafe) {
  EmpiricalCdf c;
  EXPECT_EQ(c.cdf(1.0), 0.0);
  EXPECT_EQ(c.quantile(0.5), 0.0);
  EXPECT_EQ(c.mean_residual(1.0), 0.0);
  EXPECT_EQ(c.mass_fraction_above(1.0), 0.0);
}

TEST(EmpiricalCdfTest, SingleSampleQuantiles) {
  EmpiricalCdf c;
  c.add(7.0);
  // Every quantile of a one-point distribution is that point.
  EXPECT_EQ(c.quantile(0.0), 7.0);
  EXPECT_EQ(c.quantile(0.5), 7.0);
  EXPECT_EQ(c.quantile(1.0), 7.0);
  EXPECT_EQ(c.median(), 7.0);
  EXPECT_DOUBLE_EQ(c.cdf(7.0), 1.0);
  EXPECT_DOUBLE_EQ(c.cdf(6.9), 0.0);
}

TEST(EmpiricalCdfTest, QuantileEndpointsAreMinAndMax) {
  EmpiricalCdf c;
  for (const double x : {3.0, 1.0, 2.0}) c.add(x);
  EXPECT_EQ(c.quantile(0.0), 1.0);
  EXPECT_EQ(c.quantile(1.0), 3.0);
  EXPECT_EQ(c.min(), 1.0);
  EXPECT_EQ(c.max(), 3.0);
}

TEST(StringsTest, Formatting) {
  EXPECT_EQ(pct(0.123456), "12.3%");
  EXPECT_EQ(pct(0.5, 0), "50%");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(lpad("x", 3), "  x");
  EXPECT_EQ(rpad("x", 3), "x  ");
}

TEST(StringsTest, SplitAndJoin) {
  const auto parts = split("a.b..c", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(join(std::vector<std::string>{"a", "b"}, "-"), "a-b");
  EXPECT_EQ(join(std::vector<int>{1, 2, 3}, ","), "1,2,3");
}

TEST(StringsTest, RenderTableAligns) {
  const auto s = render_table({{"h1", "h2"}, {"a", "bbbb"}, {"cc", "d"}});
  EXPECT_NE(s.find("h1"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

// ------------------------------------------------------------ LogHistogram

TEST(LogHistogramTest, EmptyIsAllZero) {
  LogHistogram h(1e-3, 2.0, 40);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LogHistogramTest, SingleSampleQuantilesClampToIt) {
  LogHistogram h(1e-3, 2.0, 40);
  h.add(1.5);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 1.5);
  EXPECT_EQ(h.min(), 1.5);
  EXPECT_EQ(h.max(), 1.5);
  // Every quantile must report the sample itself, not its bucket edge.
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 1.5) << "q=" << q;
  }
}

TEST(LogHistogramTest, BucketBoundariesAreHalfOpen) {
  // Buckets of h: [1, 2), [2, 4), [4, 8), [8, inf). A sample exactly on an
  // edge lands in the bucket whose low edge it is.
  LogHistogram h(1.0, 2.0, 4);
  h.add(1.0);
  h.add(2.0);   // low edge of bucket 1, not high edge of bucket 0
  h.add(3.999);
  h.add(4.0);
  h.add(100.0);  // overflow bucket
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_DOUBLE_EQ(h.bucket_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_high(1), 4.0);
}

TEST(LogHistogramTest, UnderflowCountedButNeverOverReported) {
  LogHistogram h(1.0, 2.0, 4);
  h.add(0.25);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.total(), 2u);
  // All mass is below min_value: quantiles report no more than the max seen.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.5);
  EXPECT_EQ(h.min(), 0.25);
}

TEST(LogHistogramTest, QuantileNeverExceedsRecordedMax) {
  LogHistogram h(1.0, 2.0, 4);
  for (int i = 0; i < 10; ++i) h.add(1e6);  // deep in the overflow bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1e6);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1e6);
}

TEST(LogHistogramTest, MergeEqualsCombinedStream) {
  LogHistogram a(1e-3, 2.0, 40), b(1e-3, 2.0, 40), all(1e-3, 2.0, 40);
  for (int i = 0; i < 60; ++i) {
    const double x = 0.0007 * (i + 1) * (i + 1);  // spans under- to overflow
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), all.total());
  EXPECT_EQ(a.underflow(), all.underflow());
  // NEAR, not DOUBLE_EQ: the two sums accumulate in different orders.
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;
  }
}

TEST(LogHistogramTest, MergeMismatchedGeometryIsIgnored) {
  LogHistogram a(1e-3, 2.0, 40);
  LogHistogram b(1e-3, 4.0, 40);
  a.add(1.0);
  b.add(2.0);
  a.merge(b);  // incompatible: silently a no-op, not a statistical blur
  EXPECT_EQ(a.total(), 1u);
  EXPECT_EQ(a.max(), 1.0);
}

TEST(LogHistogramTest, DegenerateParamsAreClamped) {
  LogHistogram h(-1.0, 0.5, 0);  // nonsense => 1e-9 floor, x2 growth, 1 bucket
  h.add(5.0);
  EXPECT_EQ(h.buckets(), 1u);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
}

}  // namespace
}  // namespace lg::util
