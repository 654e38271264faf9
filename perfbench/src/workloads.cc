#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "stramash/cache/ruby_ref.hh"
#include "stramash/common/logging.hh"
#include "stramash/load/arrival.hh"
#include "stramash/load/keydist.hh"
#include "stramash/load/service.hh"
#include "stramash/sched/scheduler.hh"
#include "stramash/sim/parallel_executor.hh"
#include "stramash/workloads/npb.hh"
#include "stramash/workloads/sharded_kvstore.hh"

namespace perfbench
{

using namespace stramash;

namespace
{

// ---- shared plumbing ------------------------------------------------

struct DesignSpec
{
    const char *name;
    OsDesign design;
};

/** Every workload runs both OS designs: fused Stramash and Popcorn. */
constexpr DesignSpec kDesigns[2] = {
    {"fused", OsDesign::FusedKernel},
    {"popcorn", OsDesign::MultipleKernel},
};

void
check(Outcome &out, bool ok, const std::string &what)
{
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok)
        out.correct = false;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Run @p body(rep) until @p seconds have passed, and at least twice:
 *  the determinism checks compare repetitions. */
template <typename F>
void
repeatFor(double seconds, F &&body)
{
    double t0 = nowSeconds();
    for (unsigned rep = 0; rep < 2 || nowSeconds() - t0 < seconds; ++rep)
        body(rep);
}

/** Checks that the tail level reported for @p samples latencies has at
 *  least ten samples beyond it. */
void
checkTailSupport(Outcome &out, const char *what, std::uint64_t samples)
{
    check(out, highestSupportedLevel(samples) >= 0.999,
          std::string(what) + ": p999 over " + std::to_string(samples) +
              " samples has " +
              std::to_string(samplesBeyond(samples, 0.999)) +
              " beyond it (>= 10)");
}

/** Accumulates same-edged histograms across systems. */
struct HistAcc
{
    std::unique_ptr<Histogram> h;

    void
    add(const Histogram *src)
    {
        if (!src)
            return;
        if (!h)
            h = std::make_unique<Histogram>(src->edges());
        h->merge(*src);
    }

    double
    pct(double p) const
    {
        return h && h->count() ? h->percentile(p) : 0.0;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** FNV-1a over 64-bit words: a compact fingerprint of simulated
 *  outputs for the determinism checks. */
struct Fingerprint
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
};

/**
 * Counts of the layers below the workload, read from the StatGroups
 * of every System a workload's traced pass ran, summed over them.
 */
struct LayerCounts
{
    double l1Acc = 0, l1Hit = 0, l2Acc = 0, l2Hit = 0, l3Acc = 0,
           l3Hit = 0;
    double snoops = 0, memLocal = 0, memRemote = 0;
    double icount = 0, cycles = 0, memCycles = 0, ipis = 0;
    double pageFaults = 0, pagesAllocated = 0, replicated = 0;
    double msgs = 0, msgBytes = 0, ringFull = 0, retries = 0;
    HistAcc ringDepth;

    void
    add(System &sys)
    {
        Machine &m = sys.machine();
        for (NodeId n = 0; n < m.nodeCount(); ++n) {
            const StatGroup &cs = m.caches().nodeStats(n);
            l1Acc += cs.value("l1_accesses");
            l1Hit += cs.value("l1_hits");
            l2Acc += cs.value("l2_accesses");
            l2Hit += cs.value("l2_hits");
            l3Acc += cs.value("l3_accesses");
            l3Hit += cs.value("l3_hits");
            snoops += cs.value("snoop_invalidates") +
                      cs.value("snoop_datas");
            memLocal += cs.value("local_mem_hits");
            memRemote += cs.value("remote_mem_hits") +
                         cs.value("remote_shared_mem_hits");
            icount += m.node(n).icount();
            cycles += m.node(n).cycles();
            memCycles += m.node(n).memCycles();
            ipis += m.ipisReceived(n);
            pageFaults += sys.kernel(n).stats().value("page_faults");
            pagesAllocated +=
                sys.kernel(n).palloc().stats().value("pages_allocated");
        }
        replicated += sys.replicatedPages();
        msgs += sys.messagesSent();
        msgBytes += sys.msg().stats().value("bytes_sent");
        ringFull += sys.msg().stats().value("ring_full");
        if (FaultInjector *fi = m.faultInjector())
            retries += fi->retries().value("attempts");
        ringDepth.add(sys.msg().stats().findHistogram("ring_depth"));
    }

    void
    report(MetricSet &ms, double operations) const
    {
        ms.set("cache.accesses", l1Acc);
        ms.set("cache.l1_hit_rate", ratio(l1Hit, l1Acc));
        ms.set("cache.l2_hit_rate", ratio(l2Hit, l2Acc));
        ms.set("cache.l3_hit_rate", ratio(l3Hit, l3Acc));
        ms.set("cache.snoops_per_kaccess", 1000.0 * ratio(snoops, l1Acc));
        ms.set("cache.remote_mem_frac",
               ratio(memRemote, memLocal + memRemote));
        ms.set("sim.icount", icount);
        ms.set("sim.mem_cycle_frac", ratio(memCycles, cycles));
        ms.set("sim.ipis", ipis);
        ms.set("kernel.page_faults", pageFaults);
        ms.set("kernel.pages_allocated", pagesAllocated);
        ms.set("dsm.replicated_pages", replicated);
        ms.set("msg.sent", msgs);
        ms.set("msg.bytes_sent", msgBytes);
        ms.set("msg.ring_full", ringFull);
        ms.set("msg.retries", retries);
        ms.set("msg.ring_depth_p99", ringDepth.pct(0.99));
        ms.set("msg.per_req", ratio(msgs, operations));
    }
};

/** Per-layer metrics a workload does not exercise: the layer did no
 *  work, so its counts and host costs are 0. */
void
zeroUnset(MetricSet &ms)
{
    for (const MetricDef &d : perLayerMetrics())
        if (!ms.has(d.name))
            ms.set(d.name, 0.0);
}

/** The per-layer metrics common to every traced run; writes the spans
 *  and zeroes the layers the workload did not exercise. */
void
finishTrace(MetricSet &ms, const RunOptions &opts, const SpanLog &spans,
            const std::vector<double> &buildS, double tracedS,
            double untracedS)
{
    ms.set("core.system_build_s", median(buildS));
    ms.set("trace.overhead_ratio", ratio(tracedS, untracedS));
    if (!opts.spansOut.empty() && !spans.write(opts.spansOut))
        std::fprintf(stderr, "warning: cannot write %s\n",
                     opts.spansOut.c_str());
    zeroUnset(ms);
}

/** The end-to-end host metrics common to every workload. */
void
reportHost(MetricSet &ms, const std::vector<double> &hostS,
           const std::vector<double> &setupS)
{
    std::printf("  host_s per repetition:");
    for (double h : hostS)
        std::printf(" %.4f", h);
    std::printf("\n");
    ms.set("host_s", median(hostS));
    ms.set("setup_s", median(setupS));
    ms.set("peak_rss_mb", peakRssMb());
}

// ---- npb-write / npb-read -------------------------------------------

// Fig. 9 settings (bench_fig9_npb): 5 iterations, 2 MiB problem,
// 4 MiB L3, caches flushed before the run, Shared memory model,
// shared-memory transport, migration on.
constexpr unsigned kNpbIterations = 5;
constexpr Addr kNpbProblemBytes = 2 * 1024 * 1024;
constexpr Addr kNpbL3Bytes = 4 * 1024 * 1024;
/** NpbConfig's default input seed, the one Fig. 9 was produced with. */
constexpr std::uint64_t kFig9Seed = 42;

/**
 * The Fig. 9 rows this benchmark reproduces (EXPERIMENTS.md,
 * bench_fig9_npb): runtime of the Shared column (fused Stramash) and
 * the Shared-SHM column (Popcorn), in simulated cycles.
 */
struct Fig9Row
{
    const char *kernel;
    Cycles fused;
    Cycles popcorn;
};
constexpr Fig9Row kFig9Rows[] = {
    {"is", 299375235, 1051005330},
    {"cg", 56665286, 97050839},
};

/** One captured user access (or, with isRetire, a retirement of
 *  `addr` instructions) of a traced NPB run. */
struct StreamOp
{
    Addr addr;
    std::uint32_t size;
    std::uint8_t node;
    std::uint8_t type;
    bool isRetire;
};

struct NpbRun
{
    double setupS = 0, buildS = 0, runS = 0;
    Cycles runtime = 0;
    bool verified = false;
    std::uint64_t fingerprint = 0;
    MachineConfig machine; ///< for replaying the run's access stream
};

NpbRun
runNpbOnce(const std::string &kernel, OsDesign design, std::uint64_t seed,
           SpanLog *spans = nullptr, std::uint64_t id = 0,
           std::vector<StreamOp> *stream = nullptr,
           LayerCounts *counts = nullptr)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.memoryModel = MemoryModel::Shared;
    cfg.transport = Transport::SharedMemory;
    cfg.l3Size = kNpbL3Bytes;
    std::unique_ptr<NpbKernel> k = makeNpbKernel(kernel);
    NpbConfig ncfg;
    ncfg.iterations = kNpbIterations;
    ncfg.problemBytes = kNpbProblemBytes;
    ncfg.migrate = true;
    ncfg.seed = seed;

    NpbRun r;
    double t0 = nowSeconds();
    std::unique_ptr<System> sys;
    {
        SpanScope s(spans, "core.System", id);
        sys = std::make_unique<System>(cfg);
    }
    r.buildS = nowSeconds() - t0;
    std::unique_ptr<App> app;
    {
        SpanScope s(spans, "core.App", id);
        app = std::make_unique<App>(*sys, 0);
        sys->resetExperimentCounters();
    }
    r.setupS = nowSeconds() - t0;

    if (stream) {
        sys->machine().setTraceHooks(
            [stream](NodeId n, AccessType t, Addr pa, unsigned size) {
                stream->push_back({pa, size, static_cast<std::uint8_t>(n),
                                   static_cast<std::uint8_t>(t), false});
            },
            [stream](NodeId n, ICount c) {
                stream->push_back(
                    {c, 0, static_cast<std::uint8_t>(n), 0, true});
            });
    }
    double t1 = nowSeconds();
    NpbResult res;
    {
        SpanScope s(spans, "npb.run", id);
        res = k->run(*app, ncfg);
    }
    r.runS = nowSeconds() - t1;
    sys->machine().clearTraceHooks();

    r.runtime = sys->runtime();
    r.verified = res.verified;
    Fingerprint fp;
    fp.add(r.runtime);
    fp.add(res.checksum);
    fp.add(sys->messagesSent());
    for (NodeId n = 0; n < sys->nodeCount(); ++n) {
        fp.add(sys->machine().node(n).cycles());
        fp.add(sys->machine().node(n).icount());
    }
    r.fingerprint = fp.h;
    if (counts)
        counts->add(*sys);
    r.machine = sys->machine().config();
    return r;
}

/** Host cost of the cache and machine layers alone, from replaying a
 *  captured stream through fresh instances. */
struct ReplayCost
{
    double cacheS = 0;
    double machineS = 0;
    std::uint64_t accesses = 0;
    double rubyDiffPp = 0;
};

ReplayCost
replayStream(const MachineConfig &mcfg, const std::vector<StreamOp> &ops)
{
    ReplayCost rc;
    Machine forCache(mcfg);
    CoherenceDomain &dom = forCache.caches();
    double t0 = nowSeconds();
    for (const StreamOp &op : ops) {
        if (!op.isRetire)
            dom.access(op.node, static_cast<AccessType>(op.type), op.addr,
                       op.size);
    }
    rc.cacheS = nowSeconds() - t0;

    Machine forSim(mcfg);
    t0 = nowSeconds();
    for (const StreamOp &op : ops) {
        if (op.isRetire)
            forSim.retire(op.node, op.addr);
        else
            forSim.dataAccess(op.node, static_cast<AccessType>(op.type),
                              op.addr, op.size);
    }
    rc.machineS = nowSeconds() - t0;

    // The same line stream through the independent Ruby-style
    // reference; the plugin side is the cache replay above.
    std::size_t nodes = forCache.nodeCount();
    RubyRefModel ruby(static_cast<unsigned>(nodes),
                      RubyGeometry::paperDefault(mcfg.l3Size));
    for (const StreamOp &op : ops) {
        if (op.isRetire)
            continue;
        ++rc.accesses;
        Addr first = lineBase(op.addr);
        Addr last = lineBase(op.addr + (op.size ? op.size - 1 : 0));
        for (Addr a = first; a <= last; a += cacheLineSize)
            ruby.access(op.node, static_cast<AccessType>(op.type), a);
    }
    const char *hits[] = {"l1_hits", "l2_hits", "l3_hits"};
    const char *accs[] = {"l1_accesses", "l2_accesses", "l3_accesses"};
    for (int level = 0; level < 3; ++level) {
        double ph = 0, pa = 0, rh = 0, ra = 0;
        for (NodeId n = 0; n < nodes; ++n) {
            ph += dom.nodeStats(n).value(hits[level]);
            pa += dom.nodeStats(n).value(accs[level]);
            rh += ruby.levelStats(n, level + 1).hits;
            ra += ruby.levelStats(n, level + 1).accesses;
        }
        rc.rubyDiffPp = std::max(
            rc.rubyDiffPp, 100.0 * std::abs(ratio(ph, pa) - ratio(rh, ra)));
    }
    return rc;
}

Outcome
runNpb(const std::string &kernel, const RunOptions &opts)
{
    Outcome out;
    const Fig9Row *row = nullptr;
    for (const Fig9Row &r : kFig9Rows)
        if (kernel == r.kernel)
            row = &r;

    std::printf("npb %s: Fig. 9 settings (%u iterations, %llu MiB "
                "problem, %llu MiB L3), input seed %llu\n",
                kernel.c_str(), kNpbIterations,
                static_cast<unsigned long long>(kNpbProblemBytes >> 20),
                static_cast<unsigned long long>(kNpbL3Bytes >> 20),
                static_cast<unsigned long long>(opts.seed));

    // Self-check against the paper figure, at the input seed Fig. 9
    // used; doubles as the warm-up run.
    for (int d = 0; d < 2; ++d) {
        NpbRun r = runNpbOnce(kernel, kDesigns[d].design, kFig9Seed);
        out.ops.add(r.verified);
        Cycles want = d == 0 ? row->fused : row->popcorn;
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "Fig. 9 row %s/%s: %.2f Mcyc (%llu cycles), "
                      "expected %.2f Mcyc (%llu cycles)",
                      kernel.c_str(), d == 0 ? "Shared" : "Shared-SHM",
                      r.runtime / 1e6,
                      static_cast<unsigned long long>(r.runtime),
                      want / 1e6, static_cast<unsigned long long>(want));
        check(out, r.runtime == want && r.verified, buf);
    }

    std::vector<double> hostS, setupS, buildS, runS[2];
    std::uint64_t fp0[2] = {0, 0};
    Cycles runtime[2] = {0, 0};
    bool identical = true;
    bool verified = true;
    unsigned reps = 0;
    repeatFor(opts.seconds, [&](unsigned rep) {
        double host = 0, setup = 0, build = 0;
        for (int d = 0; d < 2; ++d) {
            NpbRun r = runNpbOnce(kernel, kDesigns[d].design, opts.seed);
            out.ops.add(r.verified);
            verified &= r.verified;
            host += r.runS;
            setup += r.setupS;
            build += r.buildS;
            runS[d].push_back(r.runS);
            if (rep == 0) {
                fp0[d] = r.fingerprint;
                runtime[d] = r.runtime;
            }
            identical &= r.fingerprint == fp0[d];
        }
        hostS.push_back(host);
        setupS.push_back(setup);
        buildS.push_back(build);
        reps = rep + 1;
    });
    check(out, verified, "every NPB run verified its result");
    check(out, identical,
          "simulated metrics bit-identical across " +
              std::to_string(reps) + " in-process runs at seed " +
              std::to_string(opts.seed));

    MetricSet &ms = out.metrics;
    reportHost(ms, hostS, setupS);
    for (int d = 0; d < 2; ++d) {
        std::string n = kDesigns[d].name;
        double mcyc = static_cast<double>(runtime[d]) / 1e6;
        // The operation is one NPB run: its latency is the runtime.
        ms.set("sim_mcyc_" + n, mcyc);
        ms.set("p50_kcyc_" + n, mcyc * 1e3);
        ms.set("p999_kcyc_" + n, mcyc * 1e3);
        ms.set("slo_rate_" + n, 1.0 / mcyc);
    }
    ms.set("ok_frac", out.ops.okFrac());
    std::printf("  %s: fused %.2f Mcyc, popcorn %.2f Mcyc; host %.3f s "
                "per pair (median of %u)\n",
                kernel.c_str(), runtime[0] / 1e6, runtime[1] / 1e6,
                median(hostS), reps);

    if (!opts.trace)
        return out;

    // Traced pass: spans, the captured access stream, and replays of
    // that stream through the cache and machine layers alone.
    SpanLog spans;
    LayerCounts counts;
    double cacheS = 0, machineS = 0, untracedS = 0, tracedS = 0;
    double ruby = 0;
    std::uint64_t accesses = 0;
    for (int d = 0; d < 2; ++d) {
        std::vector<StreamOp> stream;
        NpbRun r = runNpbOnce(kernel, kDesigns[d].design, opts.seed,
                              &spans, static_cast<std::uint64_t>(d),
                              &stream, &counts);
        check(out, r.fingerprint == fp0[d],
              std::string("traced ") + kDesigns[d].name +
                  " run matches the untraced one");
        ReplayCost rc = replayStream(r.machine, stream);
        double med = median(runS[d]);
        std::printf("  trace %s: cache replay %.3f s = %.0f%% of "
                    "NpbKernel::run (%.3f s untraced; ROADMAP gprof "
                    "estimate ~60%%), machine replay %.3f s, "
                    "%llu accesses, Ruby diff %.2f pp\n",
                    kDesigns[d].name, rc.cacheS, 100.0 * rc.cacheS / med,
                    med, rc.machineS,
                    static_cast<unsigned long long>(rc.accesses),
                    rc.rubyDiffPp);
        cacheS += rc.cacheS;
        machineS += rc.machineS;
        accesses += rc.accesses;
        ruby = std::max(ruby, rc.rubyDiffPp);
        untracedS += med;
        tracedS += r.runS;
    }
    counts.report(ms, 2.0);
    ms.set("cache.host_ns_per_access", 1e9 * ratio(cacheS, accesses));
    ms.set("cache.host_share", ratio(cacheS, untracedS));
    ms.set("cache.ruby_diff_pp", ruby);
    ms.set("sim.host_ns_per_access", 1e9 * ratio(machineS, accesses));
    ms.set("sim.minst_per_host_s", ratio(counts.icount, untracedS) / 1e6);
    ms.set("kernel.host_share",
           ratio(std::max(0.0, untracedS - machineS), untracedS));
    finishTrace(ms, opts, spans, buildS, tracedS, untracedS);
    return out;
}

// ---- kv-open --------------------------------------------------------

constexpr std::size_t kKvNodes = 8;
constexpr std::size_t kKvRequests = 200000;
/** Requests per SLO-rate bisection probe: p999 keeps 100 samples
 *  beyond it. */
constexpr std::size_t kKvProbeRequests = 100000;
constexpr double kKvSetFraction = 0.10;
constexpr double kKvZipfTheta = 0.99;
/** Offered rate of the measured runs, requests per Mcycle: about half
 *  of Popcorn's 8-node capacity, where neither design sheds. */
constexpr double kKvIsoRate = 75.0;
/** The SLO: p999 latency limit, in kcycles. */
constexpr double kKvSloP999Kcyc = 3000.0;
/**
 * Bisection range and halvings for the highest sustainable rate. The
 * search starts at the iso-rate, not lower: the front end's p999
 * rises again at low rates (it grows about as 1/rate there), so the
 * SLO predicate is only monotone above the iso-rate.
 */
constexpr double kKvBisectHi = 2000.0;
constexpr unsigned kKvBisectSteps = 11;

struct KvReq
{
    Cycles arrival;
    KvOp op;
    std::uint64_t key;
    NodeId ingress;
};

/** The open-loop timeline: Poisson arrivals, Zipf keys, 10% sets,
 *  uniform ingress — each from its own stream of @p seed. */
std::vector<KvReq>
kvTimeline(double ratePerMcycle, std::uint64_t seed, std::size_t n)
{
    ArrivalProcess arrivals(ArrivalConfig::poisson(ratePerMcycle, seed));
    KeyChooser keys(KeyDistConfig::zipfian(
        kKvNodes * ShardedKvConfig{}.keysPerShard, kKvZipfTheta, seed + 1));
    Rng mix(seed + 2, 0x0919);
    std::vector<KvReq> out;
    out.reserve(n);
    Cycles t = 0;
    for (std::size_t i = 0; i < n; ++i) {
        t += arrivals.next();
        std::uint64_t key = keys.next();
        KvOp op = mix.uniform() < kKvSetFraction ? KvOp::Set : KvOp::Get;
        auto ingress = static_cast<NodeId>(mix.below64(kKvNodes));
        out.push_back({t, op, key, ingress});
    }
    return out;
}

SystemConfig
kvSystemConfig(OsDesign design)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.transport = Transport::SharedMemory;
    // Functional mode, as in §9.2.8: the cache layer stays idle.
    cfg.cachePluginEnabled = false;
    cfg.topology = TopologySpec::alternating(kKvNodes, MemoryModel::Shared);
    return cfg;
}

struct KvRun
{
    double setupS = 0, buildS = 0, runS = 0;
    std::uint64_t served = 0;
    bool verified = false;
    std::uint64_t samples = 0;
    double p50Kcyc = 0, p999Kcyc = 0;
    Cycles lastCompletion = 0;
    std::uint64_t fingerprint = 0;
};

/** Optional per-layer capture of one kv run. */
struct KvLayers
{
    LayerCounts counts;
    double lookups = 0, hits = 0, stale = 0;
    double invalidationsSent = 0, coherentInvalidations = 0, shed = 0;
    HistAcc batchSize, queueDepth;
    double crossShard = 0, served = 0;
};

KvRun
runKvOnce(OsDesign design, const std::vector<KvReq> &timeline,
          SpanLog *spans = nullptr, KvLayers *layers = nullptr)
{
    KvRun r;
    double t0 = nowSeconds();
    System sys(kvSystemConfig(design));
    r.buildS = nowSeconds() - t0;
    ShardedKvStore store(sys);
    store.populate();
    ServiceConfig sc;
    sc.hotKeyCache = true;
    KvFrontEnd fe(sys, store, sc);
    r.setupS = nowSeconds() - t0;

    double t1 = nowSeconds();
    for (std::size_t i = 0; i < timeline.size(); ++i) {
        const KvReq &q = timeline[i];
        SpanScope s(spans, "kv.inject", i);
        fe.inject(q.arrival, q.op, q.key, q.ingress);
    }
    {
        SpanScope s(spans, "kv.drain", timeline.size());
        fe.drain();
    }
    r.runS = nowSeconds() - t1;

    const StatGroup &ls = fe.stats();
    r.served = ls.value("served");
    r.verified = store.verify();
    const Histogram *lat = ls.findHistogram("latency");
    r.samples = lat ? lat->count() : 0;
    // Latencies run from each request's scheduled arrival.
    r.p50Kcyc = lat ? lat->percentile(0.50) / 1e3 : 0.0;
    r.p999Kcyc = lat ? lat->percentile(0.999) / 1e3 : 0.0;
    r.lastCompletion = fe.lastCompletion();

    Fingerprint fp;
    fp.add(r.served);
    fp.add(r.lastCompletion);
    fp.add(lat ? lat->sum() : 0);
    fp.add(lat ? lat->maxValue() : 0);
    fp.add(sys.messagesSent());
    for (NodeId n = 0; n < sys.nodeCount(); ++n)
        fp.add(sys.machine().node(n).cycles());
    r.fingerprint = fp.h;

    if (layers) {
        layers->counts.add(sys);
        double hits = ls.value("cache_hits");
        double stale = ls.value("cache_stale");
        layers->hits += hits;
        layers->stale += stale;
        layers->lookups += hits + stale + ls.value("cache_misses");
        layers->invalidationsSent += ls.value("invalidations_sent");
        layers->coherentInvalidations +=
            ls.value("coherent_invalidations");
        layers->shed += ls.value("ring_full") + ls.value("degraded_shed");
        layers->batchSize.add(ls.findHistogram("batch_size"));
        layers->queueDepth.add(ls.findHistogram("queue_depth"));
        layers->crossShard += store.crossShardRequests();
        layers->served += store.requestsServed();
    }
    return r;
}

/** Whether @p design meets the SLO at @p rate: nothing shed or lost,
 *  the store verifies, and p999 stays under the limit. */
bool
kvMeetsSlo(OsDesign design, double rate, std::uint64_t seed)
{
    std::vector<KvReq> tl = kvTimeline(rate, seed, kKvProbeRequests);
    KvRun r = runKvOnce(design, tl);
    return r.served == tl.size() && r.verified &&
           r.p999Kcyc <= kKvSloP999Kcyc;
}

Outcome
runKv(const RunOptions &opts)
{
    Outcome out;
    std::vector<KvReq> timeline = kvTimeline(kKvIsoRate, opts.seed,
                                             kKvRequests);
    std::printf("kv-open: %zu nodes, %zu Poisson requests at %.0f "
                "req/Mcyc, Zipf %.2f keys, %.0f%% sets, hot-key cache "
                "on, cache plugin off, seed %llu\n",
                kKvNodes, kKvRequests, kKvIsoRate, kKvZipfTheta,
                100 * kKvSetFraction,
                static_cast<unsigned long long>(opts.seed));

    std::vector<double> hostS, setupS, buildS, runS[2];
    KvRun first[2];
    bool identical = true;
    unsigned reps = 0;
    repeatFor(opts.seconds, [&](unsigned rep) {
        double host = 0, setup = 0, build = 0;
        for (int d = 0; d < 2; ++d) {
            KvRun r = runKvOnce(kDesigns[d].design, timeline);
            // A request fails when shed, degraded or unreachable (not
            // served); a verify() mismatch fails every request.
            std::uint64_t failed = r.verified
                                       ? timeline.size() - r.served
                                       : timeline.size();
            out.ops.add(timeline.size(), failed);
            host += r.runS;
            setup += r.setupS;
            build += r.buildS;
            runS[d].push_back(r.runS);
            if (rep == 0)
                first[d] = r;
            identical &= r.fingerprint == first[d].fingerprint;
        }
        hostS.push_back(host);
        setupS.push_back(setup);
        buildS.push_back(build);
        reps = rep + 1;
    });
    for (int d = 0; d < 2; ++d) {
        check(out, first[d].verified,
              std::string(kDesigns[d].name) +
                  ": verify() finds every acked write in the store");
        check(out, first[d].served == timeline.size(),
              std::string(kDesigns[d].name) + ": all " +
                  std::to_string(timeline.size()) +
                  " requests served at the iso-rate (none shed)");
    }
    check(out, identical,
          "simulated metrics bit-identical across " +
              std::to_string(reps) + " in-process runs at seed " +
              std::to_string(opts.seed));

    MetricSet &ms = out.metrics;
    reportHost(ms, hostS, setupS);
    for (int d = 0; d < 2; ++d) {
        std::string n = kDesigns[d].name;
        ms.set("sim_mcyc_" + n, first[d].lastCompletion / 1e6);
        ms.set("p50_kcyc_" + n, first[d].p50Kcyc);
        ms.set("p999_kcyc_" + n, first[d].p999Kcyc);
        std::printf("  %s: p50 %.2f kcyc, p999 %.2f kcyc, makespan %.2f "
                    "Mcyc\n",
                    kDesigns[d].name, first[d].p50Kcyc, first[d].p999Kcyc,
                    first[d].lastCompletion / 1e6);
        checkTailSupport(out, kDesigns[d].name, first[d].samples);
    }

    // Highest sustainable rate, by bisection on deterministic
    // simulated results (not part of the timed phase).
    for (int d = 0; d < 2; ++d) {
        OsDesign design = kDesigns[d].design;
        double rate = bisectHighest(
            kKvIsoRate, kKvBisectHi, kKvBisectSteps,
            [&](double r) { return kvMeetsSlo(design, r, opts.seed); });
        check(out, rate >= kKvIsoRate,
              std::string(kDesigns[d].name) + " sustains the iso-rate " +
                  "under the SLO (highest rate " + std::to_string(rate) +
                  " req/Mcyc, p999 <= " +
                  std::to_string(kKvSloP999Kcyc) + " kcyc)");
        ms.set(std::string("slo_rate_") + kDesigns[d].name, rate);
    }
    ms.set("ok_frac", out.ops.okFrac());

    if (!opts.trace)
        return out;

    SpanLog spans;
    KvLayers layers;
    double untracedS = 0, tracedS = 0, execS = 0;
    for (int d = 0; d < 2; ++d) {
        KvRun r = runKvOnce(kDesigns[d].design, timeline, &spans, &layers);
        check(out, r.fingerprint == first[d].fingerprint,
              std::string("traced ") + kDesigns[d].name +
                  " run matches the untraced one");
        untracedS += median(runS[d]);
        tracedS += r.runS;

        // The same request stream, closed-loop straight into the store.
        System sys(kvSystemConfig(kDesigns[d].design));
        ShardedKvStore store(sys);
        store.populate();
        double t0 = nowSeconds();
        for (const KvReq &q : timeline)
            store.exec(q.op, q.key, q.ingress);
        execS += nowSeconds() - t0;
    }
    double injectS = spans.total("kv.inject") + spans.total("kv.drain");
    double requests = 2.0 * timeline.size();
    layers.counts.report(ms, requests);
    ms.set("load.host_ns_per_req", 1e9 * injectS / requests);
    ms.set("load.batch_size_p50", layers.batchSize.pct(0.5));
    ms.set("load.queue_depth_p99", layers.queueDepth.pct(0.99));
    ms.set("load.cache_hit_rate", ratio(layers.hits, layers.lookups));
    ms.set("load.cache_stale_frac", ratio(layers.stale, layers.lookups));
    ms.set("load.invalidations_sent", layers.invalidationsSent);
    ms.set("load.coherent_invalidations", layers.coherentInvalidations);
    ms.set("load.shed", layers.shed);
    ms.set("workloads.kv_host_ns_per_exec", 1e9 * execS / requests);
    ms.set("workloads.cross_shard_frac",
           ratio(layers.crossShard, layers.served));
    finishTrace(ms, opts, spans, buildS, tracedS, untracedS);
    return out;
}

// ---- sched-skew -----------------------------------------------------

constexpr std::size_t kSchedNodes = 8;
constexpr std::uint64_t kSchedItems = 200000;
// Item shape of bench_sched, 4000 instructions plus on average 20000
// cycles, with the cycles drawn per item from [10000, 30000].
constexpr ICount kSchedItemInstructions = 4000;
constexpr Cycles kSchedItemMinWeight = 10000;
constexpr Cycles kSchedItemWeightSpan = 20000;

/** The items, from the seed: a Zipf-skewed target node and a weight
 *  in cycles for each. */
struct SchedItems
{
    std::vector<NodeId> target;
    std::vector<Cycles> weight;
};

/** What each item's closure writes: how often it ran, and the node
 *  clock when it finished. Items touch only their own slots, so
 *  parallel lanes never share one. */
struct ItemLog
{
    System *sys = nullptr;
    const std::vector<Cycles> *weight = nullptr;
    std::vector<std::uint32_t> runs;
    std::vector<Cycles> done;
};

struct SchedRun
{
    double setupS = 0, buildS = 0, runS = 0;
    Cycles makespan = 0;
    std::uint64_t ranOnce = 0;
    std::int64_t counterDrift = 0;
    std::vector<double> latencyKcyc;
    std::uint64_t fingerprint = 0;
    std::uint64_t epochs = 0;
    double stealsOk = 0, stealsTried = 0, stealItems = 0;
    HistAcc depth;
};

SchedItems
schedItems(std::uint64_t seed)
{
    KeyChooser keys(KeyDistConfig::zipfian(4096, 0.99, seed));
    Rng weights(seed, 0x5eed);
    SchedItems items;
    for (std::uint64_t i = 0; i < kSchedItems; ++i) {
        items.target.push_back(
            static_cast<NodeId>(keys.next() % kSchedNodes));
        items.weight.push_back(kSchedItemMinWeight +
                               weights.below64(kSchedItemWeightSpan + 1));
    }
    return items;
}

SchedRun
runSchedOnce(OsDesign design, const SchedItems &items,
             unsigned threads, SpanLog *spans = nullptr,
             std::uint64_t id = 0, LayerCounts *counts = nullptr)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.transport = Transport::SharedMemory;
    cfg.cachePluginEnabled = false;
    cfg.topology = TopologySpec::alternating(kSchedNodes, MemoryModel::Shared);
    cfg.hostThreads = threads;
    SchedConfig sc;
    sc.stealing = true;
    sc.runBlock = 16;
    sc.stealBatch = 8;

    SchedRun r;
    double t0 = nowSeconds();
    System sys(cfg);
    r.buildS = nowSeconds() - t0;
    Scheduler sched(sys, sc);
    ItemLog log;
    log.sys = &sys;
    log.weight = &items.weight;
    const std::size_t n = items.target.size();
    log.runs.assign(n, 0);
    log.done.assign(n, 0);
    {
        SpanScope s(spans, "sched.submit", id);
        for (std::size_t i = 0; i < n; ++i) {
            WorkItem item;
            item.tag = i;
            item.weight = items.weight[i];
            item.footprintBytes = 4096;
            ItemLog *lp = &log;
            item.fn = [lp, i](NodeId node) {
                Machine &m = lp->sys->machine();
                m.retire(node, kSchedItemInstructions);
                m.stall(node, (*lp->weight)[i]);
                ++lp->runs[i];
                lp->done[i] = m.node(node).cycles();
            };
            sched.submitTo(items.target[i], std::move(item));
        }
    }
    r.setupS = nowSeconds() - t0;

    Cycles base = sys.machine().maxRuntime();
    double t1 = nowSeconds();
    {
        SpanScope s(spans, "sched.runToIdle", id);
        r.makespan = sched.runToIdle();
    }
    r.runS = nowSeconds() - t1;

    Fingerprint fp;
    fp.add(r.makespan);
    r.latencyKcyc.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        r.ranOnce += log.runs[i] == 1;
        fp.add(log.done[i]);
        // Every item was submitted before the drain began, at `base`.
        r.latencyKcyc.push_back(
            static_cast<double>(log.done[i] - std::min(log.done[i], base)) /
            1e3);
    }
    for (NodeId node = 0; node < sys.nodeCount(); ++node) {
        fp.add(sys.machine().node(node).cycles());
        fp.add(sys.machine().node(node).icount());
    }
    StatGroup &ss = sched.stats();
    r.stealsOk = ss.value("steals_succeeded");
    r.stealsTried = ss.value("steals_attempted");
    r.stealItems = ss.value("steal_items");
    fp.add(ss.value("steals_succeeded"));
    fp.add(ss.value("steal_items"));
    r.fingerprint = fp.h;
    r.counterDrift = static_cast<std::int64_t>(sched.itemsExecuted()) -
                     static_cast<std::int64_t>(r.ranOnce);
    r.epochs = sys.hostExecutor().epochsRun();
    r.depth.add(ss.findHistogram("runqueue_depth"));
    if (counts)
        counts->add(sys);
    return r;
}

Outcome
runSched(const RunOptions &opts)
{
    Outcome out;
    unsigned threads = schedHostThreads();
    SchedItems items = schedItems(opts.seed);
    const std::size_t n = items.target.size();
    std::printf("sched-skew: %llu Zipf-placed items on %zu nodes, "
                "stealing on, %u host threads, seed %llu\n",
                static_cast<unsigned long long>(kSchedItems), kSchedNodes,
                threads, static_cast<unsigned long long>(opts.seed));

    std::vector<double> hostS, setupS, buildS, runS[2];
    SchedRun first[2];
    bool identical = true;
    std::int64_t drift = 0;
    unsigned reps = 0;
    repeatFor(opts.seconds, [&](unsigned rep) {
        double host = 0, setup = 0, build = 0;
        for (int d = 0; d < 2; ++d) {
            SchedRun r = runSchedOnce(kDesigns[d].design, items, threads);
            // An item fails unless the benchmark saw it run exactly once.
            out.ops.add(n, n - r.ranOnce);
            drift += r.counterDrift;
            host += r.runS;
            setup += r.setupS;
            build += r.buildS;
            runS[d].push_back(r.runS);
            identical &= rep == 0 || r.fingerprint == first[d].fingerprint;
            if (rep == 0)
                first[d] = std::move(r);
        }
        hostS.push_back(host);
        setupS.push_back(setup);
        buildS.push_back(build);
        reps = rep + 1;
    });

    // The same runs on one host lane must be bit-identical.
    bool laneInvariant = true;
    double oneLaneS = 0;
    for (int d = 0; d < 2; ++d) {
        SchedRun r = runSchedOnce(kDesigns[d].design, items, 1);
        out.ops.add(n, n - r.ranOnce);
        laneInvariant &= r.fingerprint == first[d].fingerprint;
        oneLaneS += r.runS;
    }
    for (int d = 0; d < 2; ++d)
        check(out, first[d].ranOnce == n,
              std::string(kDesigns[d].name) +
                  ": every item ran exactly once (benchmark's own flags)");
    check(out, identical,
          "simulated metrics bit-identical across " +
              std::to_string(reps) + " in-process runs at seed " +
              std::to_string(opts.seed));
    check(out, laneInvariant,
          "simulated metrics bit-identical between 1 and " +
              std::to_string(threads) + " host threads");
    // ROADMAP P0: Scheduler::execOne bumps executed_ from parallel
    // lanes unsynchronised. A named check, reported but not gated.
    std::printf("  [%s] P0 known defect: itemsExecuted() minus verified "
                "items = %lld over %u runs at %u host threads\n",
                drift == 0 ? "PASS" : "KNOWN-DEFECT",
                static_cast<long long>(drift), 2 * reps, threads);

    MetricSet &ms = out.metrics;
    reportHost(ms, hostS, setupS);
    for (int d = 0; d < 2; ++d) {
        std::string name = kDesigns[d].name;
        const SchedRun &r = first[d];
        double mcyc = static_cast<double>(r.makespan) / 1e6;
        ms.set("sim_mcyc_" + name, mcyc);
        // The operation is one work item, timed from submission (all
        // before the drain) to its completion.
        ms.set("p50_kcyc_" + name, percentile(r.latencyKcyc, 0.50));
        ms.set("p999_kcyc_" + name, percentile(r.latencyKcyc, 0.999));
        // A closed batch has no offered rate: report items completed
        // per Mcycle of makespan.
        ms.set("slo_rate_" + name,
               ratio(static_cast<double>(kSchedItems), mcyc));
        std::printf("  %s: makespan %.3f Mcyc, item p50 %.1f kcyc, p999 "
                    "%.1f kcyc, %.0f steals\n",
                    kDesigns[d].name, mcyc, percentile(r.latencyKcyc, 0.5),
                    percentile(r.latencyKcyc, 0.999), r.stealsOk);
        checkTailSupport(out, kDesigns[d].name, r.latencyKcyc.size());
    }
    ms.set("ok_frac", out.ops.okFrac());

    if (!opts.trace)
        return out;

    SpanLog spans;
    double tracedS = 0, untracedS = 0;
    double stealsOk = 0, stealsTried = 0, stealItems = 0, epochs = 0;
    std::int64_t tracedDrift = 0;
    HistAcc depth;
    LayerCounts counts;
    for (int d = 0; d < 2; ++d) {
        SchedRun r = runSchedOnce(kDesigns[d].design, items, threads,
                                  &spans, static_cast<std::uint64_t>(d),
                                  &counts);
        check(out, r.fingerprint == first[d].fingerprint,
              std::string("traced ") + kDesigns[d].name +
                  " run matches the untraced one");
        tracedS += r.runS;
        untracedS += median(runS[d]);
        stealsOk += r.stealsOk;
        stealsTried += r.stealsTried;
        stealItems += r.stealItems;
        epochs += static_cast<double>(r.epochs);
        tracedDrift += r.counterDrift;
        depth.add(r.depth.h.get());
    }
    double runTotal = spans.total("sched.runToIdle");
    double itemRuns = 2.0 * kSchedItems;
    counts.report(ms, itemRuns);
    ms.set("sched.steals_succeeded", stealsOk);
    ms.set("sched.steal_success_ratio", ratio(stealsOk, stealsTried));
    ms.set("sched.steal_items", stealItems);
    ms.set("sched.runqueue_depth_p99", depth.pct(0.99));
    ms.set("sched.host_ns_per_item", 1e9 * runTotal / itemRuns);
    ms.set("sched.submit_ns_per_item",
           1e9 * spans.total("sched.submit") / itemRuns);
    ms.set("sched.counter_drift", static_cast<double>(tracedDrift));
    ms.set("exec.epochs", epochs);
    ms.set("exec.host_us_per_epoch", 1e6 * ratio(runTotal, epochs));
    ms.set("exec.thread_speedup", ratio(oneLaneS, untracedS));
    finishTrace(ms, opts, spans, buildS, tracedS, untracedS);
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"npb-write", "npb-read",
                                                "kv-open", "sched-skew"};
    return names;
}

unsigned
schedHostThreads()
{
    // Half the host's cores: the epoch barrier spins, so a lane that
    // shares its core with another process stalls every other lane,
    // and on a shared host that measures the neighbours. At least two
    // lanes, so the parallel executor and the P0 race still run.
    unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw / 2, 2u, 4u);
}

Outcome
runWorkload(const RunOptions &opts)
{
    setQuiet(true);
    if (opts.workload == "npb-write")
        return runNpb("is", opts);
    if (opts.workload == "npb-read")
        return runNpb("cg", opts);
    if (opts.workload == "kv-open")
        return runKv(opts);
    if (opts.workload == "sched-skew")
        return runSched(opts);
    throw std::invalid_argument("unknown workload " + opts.workload);
}

} // namespace perfbench
