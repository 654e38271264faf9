/**
 * @file
 * The four benchmark workloads. Each drives the simulator only
 * through its public API, times those calls from here, checks the
 * outputs, and fills one MetricSet: the end-to-end metrics on an
 * untraced run, the per-layer metrics on a traced one.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report.hh"
#include "stats.hh"

namespace perfbench
{

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans; empty = nowhere. */
    std::string spansOut;
};

struct Outcome
{
    MetricSet metrics;
    OpTally ops;
    bool correct = true;
};

const std::vector<std::string> &workloadNames();

/** Host lanes the sched-skew workload runs on: nproc / 2, clamped
 *  to [2, 4]. */
unsigned schedHostThreads();

/** Run one workload; throws std::invalid_argument on an unknown
 *  name. */
Outcome runWorkload(const RunOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
