/**
 * @file
 * Which host, build and source produced a benchmark result.
 */

#ifndef PERFBENCH_PROVENANCE_HH
#define PERFBENCH_PROVENANCE_HH

#include <string>

namespace perfbench
{

/**
 * One JSON object: source revision (@p sourceId, supplied by run.py),
 * compiler and flags, build type, CPU model, nproc, and the host
 * threads @p workload runs on.
 */
std::string provenanceJson(const std::string &sourceId,
                           const std::string &workload,
                           unsigned hostThreads);

} // namespace perfbench

#endif // PERFBENCH_PROVENANCE_HH
