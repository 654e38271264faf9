#include "provenance.hh"

#include <fstream>
#include <thread>

namespace perfbench
{

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

std::string
provenanceJson(const std::string &sourceId, const std::string &workload,
               unsigned hostThreads)
{
    return "{\"source\": " + quoted(sourceId) +
           ", \"compiler\": " + quoted(PERFBENCH_CXX_ID) +
           ", \"flags\": " + quoted(PERFBENCH_CXX_FLAGS) +
           ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
           ", \"cpu\": " + quoted(cpuModel()) +
           ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"workload\": " + quoted(workload) +
           ", \"host_threads\": " + std::to_string(hostThreads) + "}";
}

} // namespace perfbench
