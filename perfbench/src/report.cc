#include "report.hh"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "stats.hh"

namespace perfbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs{
        {"host_s", "s", "lower"},
        {"setup_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
        {"sim_mcyc_fused", "Mcyc", "lower"},
        {"sim_mcyc_popcorn", "Mcyc", "lower"},
        {"p50_kcyc_fused", "kcyc", "lower"},
        {"p999_kcyc_fused", "kcyc", "lower"},
        {"p50_kcyc_popcorn", "kcyc", "lower"},
        {"p999_kcyc_popcorn", "kcyc", "lower"},
        {"slo_rate_fused", "1/Mcyc", "higher"},
        {"slo_rate_popcorn", "1/Mcyc", "higher"},
        {"ok_frac", "ratio", "higher"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs{
        {"cache.accesses", "count", "lower"},
        {"cache.l1_hit_rate", "ratio", "higher"},
        {"cache.l2_hit_rate", "ratio", "higher"},
        {"cache.l3_hit_rate", "ratio", "higher"},
        {"cache.snoops_per_kaccess", "1/kaccess", "lower"},
        {"cache.remote_mem_frac", "ratio", "lower"},
        {"cache.host_ns_per_access", "ns", "lower"},
        {"cache.host_share", "ratio", "lower"},
        {"cache.ruby_diff_pp", "pp", "lower"},
        {"sim.icount", "count", "lower"},
        {"sim.mem_cycle_frac", "ratio", "lower"},
        {"sim.ipis", "count", "lower"},
        {"sim.host_ns_per_access", "ns", "lower"},
        {"sim.minst_per_host_s", "Minst/s", "higher"},
        {"exec.epochs", "count", "lower"},
        {"exec.host_us_per_epoch", "us", "lower"},
        {"exec.thread_speedup", "x", "higher"},
        {"kernel.page_faults", "count", "lower"},
        {"kernel.pages_allocated", "count", "lower"},
        {"kernel.host_share", "ratio", "lower"},
        {"dsm.replicated_pages", "count", "lower"},
        {"msg.sent", "count", "lower"},
        {"msg.bytes_sent", "B", "lower"},
        {"msg.ring_full", "count", "lower"},
        {"msg.retries", "count", "lower"},
        {"msg.ring_depth_p99", "count", "lower"},
        {"msg.per_req", "1/req", "lower"},
        {"load.host_ns_per_req", "ns", "lower"},
        {"load.batch_size_p50", "count", "higher"},
        {"load.queue_depth_p99", "count", "lower"},
        {"load.cache_hit_rate", "ratio", "higher"},
        {"load.cache_stale_frac", "ratio", "lower"},
        {"load.invalidations_sent", "count", "lower"},
        {"load.coherent_invalidations", "count", "lower"},
        {"load.shed", "count", "lower"},
        {"workloads.kv_host_ns_per_exec", "ns", "lower"},
        {"workloads.cross_shard_frac", "ratio", "lower"},
        {"sched.steals_succeeded", "count", "higher"},
        {"sched.steal_success_ratio", "ratio", "higher"},
        {"sched.steal_items", "count", "higher"},
        {"sched.runqueue_depth_p99", "count", "lower"},
        {"sched.host_ns_per_item", "ns", "lower"},
        {"sched.submit_ns_per_item", "ns", "lower"},
        {"sched.counter_drift", "count", "lower"},
        {"core.system_build_s", "s", "lower"},
        {"trace.overhead_ratio", "x", "lower"},
    };
    return defs;
}

namespace
{

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
defsJson(const std::vector<MetricDef> &defs)
{
    std::string out = "[";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        if (i)
            out += ", ";
        out += "{\"name\": " + quoted(defs[i].name) +
               ", \"unit\": " + quoted(defs[i].unit) +
               ", \"better\": " + quoted(defs[i].better) + "}";
    }
    return out + "]";
}

} // namespace

std::string
catalogueJson(const std::vector<std::string> &workloads)
{
    std::string names;
    for (const std::string &w : workloads)
        names += (names.empty() ? "" : ", ") + quoted(w);
    return "{\"workloads\": [" + names + "], \"end_to_end\": " +
           defsJson(endToEndMetrics()) +
           ", \"per_layer\": " + defsJson(perLayerMetrics()) + "}";
}

std::string
fullDigits(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
MetricSet::set(const std::string &name, double value)
{
    bool known = false;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &d : *defs)
            known |= name == d.name;
    if (!known)
        throw std::invalid_argument("unknown metric " + name);
    values_[name] = value;
}

bool
MetricSet::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

double
MetricSet::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

std::vector<std::string>
MetricSet::missing(const std::vector<MetricDef> &defs) const
{
    std::vector<std::string> out;
    for (const MetricDef &d : defs)
        if (!has(d.name))
            out.push_back(d.name);
    return out;
}

std::string
MetricSet::json(const std::vector<MetricDef> &defs) const
{
    std::string out = "{";
    bool first = true;
    for (const MetricDef &d : defs) {
        if (!has(d.name))
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += quoted(d.name) + ": {\"value\": " + fullDigits(get(d.name)) +
               ", \"unit\": " + quoted(d.unit) + "}";
    }
    return out + "}";
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::string &metrics)
{
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": " + metrics + "}";
}

std::size_t
SpanLog::open(const std::string &name, std::uint64_t id)
{
    std::uint64_t parent = stack_.empty() ? 0 : stack_.back() + 1;
    spans_.push_back({name, id, parent, nowSeconds(), 0.0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanLog::close(std::size_t index)
{
    spans_[index].end = nowSeconds();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

double
SpanLog::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\": " << quoted(s.name)
            << ", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": "
            << fullDigits((s.start - t0) * 1e6)
            << ", \"dur\": " << fullDigits((s.end - s.start) * 1e6)
            << ", \"args\": {\"id\": " << s.id
            << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
