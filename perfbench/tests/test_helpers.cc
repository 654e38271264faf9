/**
 * @file
 * Tests of the benchmark's own helpers: percentiles and the sample
 * counts behind them, the SLO-rate bisection, failed/attempted
 * accounting, and the result-line and span formats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

#include "report.hh"
#include "stats.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    // Shuffle deterministically: the helpers must not assume order.
    for (int i = n - 1; i > 0; --i)
        std::swap(v[i], v[(i * 7919) % (i + 1)]);
    return v;
}

} // namespace

TEST(Median, OddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v = oneTo(1000);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 500.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.99), 990.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.999), 999.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 1000.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.999), 7.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, SamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 0.999), 1u);
    EXPECT_EQ(samplesBeyond(100000, 0.999), 100u);
    EXPECT_EQ(samplesBeyond(200000, 0.999), 200u);
    EXPECT_EQ(samplesBeyond(100000, 0.9999), 10u);
    EXPECT_EQ(samplesBeyond(0, 0.5), 0u);
    // The count agrees with the percentile: exactly that many samples
    // lie strictly above it.
    std::vector<double> v = oneTo(12345);
    double p999 = percentile(v, 0.999);
    auto above = static_cast<std::uint64_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > p999; }));
    EXPECT_EQ(above, samplesBeyond(v.size(), 0.999));
}

TEST(Percentile, HighestSupportedLevel)
{
    // At least ten samples must lie beyond the reported level.
    EXPECT_DOUBLE_EQ(highestSupportedLevel(100000), 0.9999);
    EXPECT_DOUBLE_EQ(highestSupportedLevel(99999), 0.999);
    EXPECT_DOUBLE_EQ(highestSupportedLevel(10000), 0.999);
    EXPECT_DOUBLE_EQ(highestSupportedLevel(1000), 0.99);
    EXPECT_DOUBLE_EQ(highestSupportedLevel(20), 0.5);
    EXPECT_DOUBLE_EQ(highestSupportedLevel(19), 0.0);
    EXPECT_DOUBLE_EQ(highestSupportedLevel(1), 0.0);
}

TEST(Bisect, ConvergesBelowThreshold)
{
    const double threshold = 123.4;
    unsigned probes = 0;
    double got = bisectHighest(10.0, 1000.0, 20, [&](double r) {
        ++probes;
        return r <= threshold;
    });
    EXPECT_LE(got, threshold);
    EXPECT_GT(got, threshold - 990.0 / (1 << 20) - 1e-9);
    EXPECT_EQ(probes, 21u); // lo, then one probe per halving
}

TEST(Bisect, FailingLowerEndGivesZero)
{
    unsigned probes = 0;
    double got = bisectHighest(10.0, 1000.0, 8, [&](double) {
        ++probes;
        return false;
    });
    EXPECT_DOUBLE_EQ(got, 0.0);
    EXPECT_EQ(probes, 1u);
}

TEST(Bisect, PassingEverywhereStaysBelowHi)
{
    double got = bisectHighest(0.0, 64.0, 6, [](double) { return true; });
    EXPECT_DOUBLE_EQ(got, 63.0); // hi itself is never probed
}

TEST(OpTally, Accounting)
{
    OpTally t;
    EXPECT_DOUBLE_EQ(t.okFrac(), 0.0);
    t.add(true);
    t.add(false);
    t.add(std::uint64_t{8}, std::uint64_t{1});
    EXPECT_EQ(t.attempted, 10u);
    EXPECT_EQ(t.failed, 2u);
    EXPECT_DOUBLE_EQ(t.okFrac(), 0.8);
}

TEST(MetricSet, RejectsUnknownAndReportsMissing)
{
    MetricSet ms;
    EXPECT_THROW(ms.set("no_such_metric", 1.0), std::invalid_argument);
    for (const MetricDef &d : endToEndMetrics())
        ms.set(d.name, 1.5);
    EXPECT_TRUE(ms.missing(endToEndMetrics()).empty());
    EXPECT_EQ(ms.missing(perLayerMetrics()).size(), perLayerMetrics().size());
    std::string json = ms.json(endToEndMetrics());
    EXPECT_NE(json.find("\"host_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
              std::string::npos);
}

TEST(Report, ResultLineAndDigits)
{
    EXPECT_EQ(resultLine(true, 3, 1, "{}"),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
              "\"metrics\": {}}");
    for (double v : {0.1, 1.0 / 3.0, 12345.678901234567, 1e-9})
        EXPECT_EQ(std::strtod(fullDigits(v).c_str(), nullptr), v);
}

TEST(SpanLog, NestingAndTotals)
{
    SpanLog log;
    {
        SpanScope outer(&log, "outer", 7);
        SpanScope inner(&log, "inner", 7);
    }
    {
        SpanScope none(nullptr, "ignored", 0);
    }
    ASSERT_EQ(log.spans().size(), 2u);
    EXPECT_EQ(log.spans()[0].parent, 0u);
    EXPECT_EQ(log.spans()[1].parent, 1u); // index + 1 of "outer"
    EXPECT_EQ(log.spans()[1].id, 7u);
    EXPECT_EQ(log.spans()[1].name, "inner");
    EXPECT_LE(log.total("inner"), log.total("outer"));
    EXPECT_GE(log.total("inner"), 0.0);
}
