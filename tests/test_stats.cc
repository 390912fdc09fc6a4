/**
 * @file
 * Unit tests for the statistics helpers and the table printer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/stats.hh"
#include "stats/table.hh"

namespace ecdp
{
namespace
{

TEST(Means, ArithmeticMean)
{
    EXPECT_DOUBLE_EQ(amean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(amean({}), 0.0);
}

TEST(Means, GeometricMean)
{
    EXPECT_DOUBLE_EQ(gmean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(gmean({1.0, 2.0, 4.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(gmean({}), 0.0);
}

TEST(Means, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(hmean({1.0, 1.0}), 1.0);
    EXPECT_NEAR(hmean({1.0, 3.0}), 1.5, 1e-12);
}

TEST(Means, HarmonicLeqGeometricLeqArithmetic)
{
    std::vector<double> v{0.5, 1.7, 2.2, 9.0};
    EXPECT_LE(hmean(v), gmean(v) + 1e-12);
    EXPECT_LE(gmean(v), amean(v) + 1e-12);
}

TEST(Ratios, SafeRatioHandlesZeroDenominator)
{
    EXPECT_DOUBLE_EQ(safeRatio(5.0, 2.0), 2.5);
    EXPECT_DOUBLE_EQ(safeRatio(5.0, 0.0), 0.0);
}

TEST(Ratios, PercentDelta)
{
    EXPECT_NEAR(percentDelta(1.1, 1.0), 10.0, 1e-9);
    EXPECT_NEAR(percentDelta(0.9, 1.0), -10.0, 1e-9);
    EXPECT_DOUBLE_EQ(percentDelta(1.0, 0.0), 0.0);
}

TEST(IntervalCounter, StartsAtZero)
{
    IntervalCounter counter;
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(counter.during(), 0u);
    EXPECT_EQ(counter.lifetime(), 0u);
}

TEST(IntervalCounter, Equation3HalfOldHalfNew)
{
    IntervalCounter counter;
    counter.add(100);
    counter.endInterval();
    EXPECT_EQ(counter.value(), 50u); // 0/2 + 100/2
    counter.add(200);
    counter.endInterval();
    EXPECT_EQ(counter.value(), 125u); // 50/2 + 200/2
}

TEST(IntervalCounter, AgedValueExcludesCurrentInterval)
{
    IntervalCounter counter;
    counter.add(10);
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(counter.during(), 10u);
}

TEST(IntervalCounter, LifetimeAccumulatesEverything)
{
    IntervalCounter counter;
    counter.add(10);
    counter.endInterval();
    counter.add(5);
    EXPECT_EQ(counter.lifetime(), 15u);
}

TEST(IntervalCounter, OldBehaviourDecaysAway)
{
    IntervalCounter counter;
    counter.add(1024);
    counter.endInterval();
    for (int i = 0; i < 12; ++i)
        counter.endInterval(); // idle intervals
    EXPECT_EQ(counter.value(), 0u);
}

TEST(TablePrinter, AlignsColumnsAndPrintsHeader)
{
    TablePrinter table("demo");
    table.header({"name", "value"});
    table.row().cell("longish-name").cell(std::uint64_t{7});
    table.row().cell("x").cell(3.14159, 2);
    std::ostringstream oss;
    table.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("longish-name"), std::string::npos);
    EXPECT_NE(out.find("3.14"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinter, NumericFormattingRespectsDecimals)
{
    TablePrinter table("t");
    table.row().cell(1.23456, 3);
    std::ostringstream oss;
    table.print(oss);
    EXPECT_NE(oss.str().find("1.235"), std::string::npos);
}

} // namespace
} // namespace ecdp
