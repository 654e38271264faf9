#include "stats.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

namespace
{

std::uint64_t
nearestRank(std::uint64_t n, double p)
{
    // ceil(p * n), guarded against p * n landing a hair above an
    // integer through rounding (0.999 * 1000 = 999.0000000000001).
    double exact = p * static_cast<double>(n);
    auto rank = static_cast<std::uint64_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::uint64_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::uint64_t rank = nearestRank(v.size(), p);
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

std::uint64_t
samplesBeyond(std::uint64_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

double
highestSupportedLevel(std::uint64_t n, std::uint64_t minBeyond)
{
    double best = 0.0;
    for (double p : {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}) {
        if (samplesBeyond(n, p) >= minBeyond)
            best = p;
    }
    return best;
}

double
bisectHighest(double lo, double hi, unsigned steps,
              const std::function<bool(double)> &ok)
{
    if (!ok(lo))
        return 0.0;
    for (unsigned i = 0; i < steps; ++i) {
        double mid = (lo + hi) / 2.0;
        if (ok(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

double
OpTally::okFrac() const
{
    return attempted ? static_cast<double>(attempted - failed) /
                           static_cast<double>(attempted)
                     : 0.0;
}

double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench
