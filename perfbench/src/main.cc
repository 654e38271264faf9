/**
 * @file
 * perfbench: one benchmark command for the simulator.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans-out <file>] [--source-id <rev>]
 *   perfbench --list-metrics
 *
 * Prints checks and a provenance line, then as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.
 * Exits 0 when the run completed (correct or not), 2 on bad usage.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "provenance.hh"
#include "report.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <file>] [--source-id <rev>]\n"
                 "       perfbench --list-metrics\nworkloads:",
                 why);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseNumber(const std::string &s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return !s.empty() && end && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string sourceId = "unknown";
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list-metrics") {
            std::printf("%s\n", catalogueJson(workloadNames()).c_str());
            return 0;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        std::string val = argv[++i];
        double num = 0;
        if (arg == "--workload") {
            opts.workload = val;
            haveWorkload = true;
        } else if (arg == "--seed" && parseNumber(val, num) && num >= 0) {
            opts.seed = static_cast<std::uint64_t>(num);
        } else if (arg == "--seconds" && parseNumber(val, num) && num > 0) {
            opts.seconds = num;
        } else if (arg == "--trace" && (val == "0" || val == "1")) {
            opts.trace = val == "1";
        } else if (arg == "--spans-out") {
            opts.spansOut = val;
        } else if (arg == "--source-id") {
            sourceId = val;
        } else {
            return usage(("bad argument " + arg + " " + val).c_str());
        }
    }
    if (!haveWorkload)
        return usage("no --workload given");
    bool known = false;
    for (const std::string &w : workloadNames())
        known |= w == opts.workload;
    if (!known)
        return usage(("unknown workload " + opts.workload).c_str());

    unsigned threads =
        opts.workload == "sched-skew" ? schedHostThreads() : 1;
    std::printf("provenance %s\n",
                provenanceJson(sourceId, opts.workload, threads).c_str());
    std::fflush(stdout);

    Outcome out;
    try {
        out = runWorkload(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    const auto &defs = opts.trace ? perLayerMetrics() : endToEndMetrics();
    for (const std::string &name : out.metrics.missing(defs)) {
        std::printf("  [FAIL] metric %s was not measured\n", name.c_str());
        out.correct = false;
    }
    std::printf("%s\n", resultLine(out.correct, out.ops.attempted,
                                   out.ops.failed, out.metrics.json(defs))
                            .c_str());
    return 0;
}
