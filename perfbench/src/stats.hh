/**
 * @file
 * Small statistics helpers of the benchmark: medians and percentiles
 * over raw samples, the tail level a sample count can support, the
 * SLO-rate bisection, and failed/attempted accounting. Kept apart
 * from the simulator so tests/test_helpers.cc can pin them down.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench
{

/** Median of @p v (mean of the two middle values for even sizes);
 *  0 for an empty vector. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile: the smallest sample such that at least a
 * share @p p of all samples are <= it. @p p in (0, 1]; 0 for an empty
 * vector.
 */
double percentile(std::vector<double> v, double p);

/** How many of @p n samples lie strictly beyond the nearest-rank
 *  percentile @p p (n - ceil(p * n)). */
std::uint64_t samplesBeyond(std::uint64_t n, double p);

/**
 * The highest of the levels 0.5, 0.9, 0.99, 0.999, 0.9999 and 0.99999
 * that still has at least @p minBeyond samples beyond it in a run of
 * @p n samples; 0 when not even the median qualifies.
 */
double highestSupportedLevel(std::uint64_t n, std::uint64_t minBeyond = 10);

/**
 * Highest value in [lo, hi] for which the monotone predicate @p ok
 * holds, found by @p steps halvings of the interval. ok(lo) is probed
 * first: when it fails the result is 0. ok(hi) is never probed, so
 * @p hi should be a value known to fail. Returns the highest value
 * probed that passed.
 */
double bisectHighest(double lo, double hi, unsigned steps,
                     const std::function<bool(double)> &ok);

/** Failed-vs-attempted accounting of one workload's operations. */
struct OpTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(bool succeeded)
    {
        ++attempted;
        if (!succeeded)
            ++failed;
    }

    void
    add(std::uint64_t n, std::uint64_t nFailed)
    {
        attempted += n;
        failed += nFailed;
    }

    /** Share of attempted operations that succeeded; 0 when nothing
     *  was attempted. */
    double okFrac() const;
};

/** Seconds on a steady clock since an arbitrary epoch. */
double nowSeconds();

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
