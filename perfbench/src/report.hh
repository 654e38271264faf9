/**
 * @file
 * The benchmark's metric catalogue (names, units, directions: the
 * same lists BENCHMARK.json declares, which tests/test_contract.py
 * checks), the result line the benchmark ends with, and the in-memory
 * span log of the traced run.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better; ///< "lower" or "higher"
};

/** Metrics every untraced run prints, on every workload. */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics every traced run prints, on every workload. */
const std::vector<MetricDef> &perLayerMetrics();

/** The workload names and both metric catalogues as one JSON object
 *  (for --list-metrics). */
std::string catalogueJson(const std::vector<std::string> &workloads);

/** Values keyed by catalogue name; set() rejects unknown names. */
class MetricSet
{
  public:
    void set(const std::string &name, double value);
    bool has(const std::string &name) const;
    double get(const std::string &name) const;

    /** Names of @p defs that have no value yet. */
    std::vector<std::string>
    missing(const std::vector<MetricDef> &defs) const;

    /** {"name": {"value": v, "unit": u}, ...} over @p defs. */
    std::string json(const std::vector<MetricDef> &defs) const;

  private:
    std::map<std::string, double> values_;
};

/** The one-line result object the benchmark prints last. */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const std::string &metrics);

/** A number with all the digits needed to read it back exactly. */
std::string fullDigits(double v);

/** One timed interval of the traced run. */
struct Span
{
    std::string name;
    std::uint64_t id;     ///< NPB run, kv request or sched drain
    std::uint64_t parent; ///< index + 1 of the enclosing span, 0 = root
    double start;         ///< seconds, steady clock
    double end;
};

/**
 * Spans recorded in memory around calls into the simulator, written
 * out once at the end of the traced run as Chrome trace JSON.
 */
class SpanLog
{
  public:
    std::size_t open(const std::string &name, std::uint64_t id);
    void close(std::size_t index);

    /** Total duration of every span named @p name, in seconds. */
    double total(const std::string &name) const;

    const std::vector<Span> &spans() const { return spans_; }

    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** Opens a span on construction and closes it on destruction; does
 *  nothing (no clock read) when @p log is null. */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const std::string &name, std::uint64_t id)
        : log_(log), index_(log ? log->open(name, id) : 0)
    {
    }
    ~SpanScope()
    {
        if (log_)
            log_->close(index_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanLog *log_;
    std::size_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
