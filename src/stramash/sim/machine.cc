#include "stramash/sim/machine.hh"

#include "stramash/common/units.hh"

namespace stramash
{

MachineConfig
MachineConfig::paperPair(MemoryModel model, Addr l3Size)
{
    MachineConfig cfg;
    cfg.memoryModel = model;
    cfg.l3Size = l3Size;
    cfg.nodes = {
        {0, IsaType::X86_64, CoreModel::XeonGold, 1},
        {1, IsaType::AArch64, CoreModel::ThunderX2, 1},
    };
    return cfg;
}

MachineConfig
MachineConfig::fromTopology(const TopologySpec &spec, Addr l3Size)
{
    spec.validate();
    MachineConfig cfg;
    cfg.memoryModel = spec.memoryModel;
    cfg.l3Size = l3Size;
    cfg.nodes.reserve(spec.nodeCount());
    for (const auto &n : spec.nodes)
        cfg.nodes.push_back({n.id, n.isa, n.core, n.numCores});
    cfg.topology = spec;
    return cfg;
}

namespace
{

PhysMap
buildPhysMap(const MachineConfig &cfg)
{
    return cfg.topology ? PhysMap::generate(*cfg.topology)
                        : PhysMap::paperDefault(cfg.memoryModel);
}

} // namespace

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg),
      map_(buildPhysMap(cfg)),
      tracer_(cfg.trace, cfg.nodes.size(),
              [this](NodeId n) { return node(n).cycles(); })
{
    fatal_if(cfg_.nodes.empty(), "machine needs at least one node");
    if (cfg_.topology) {
        fatal_if(cfg_.topology->memoryModel != cfg_.memoryModel,
                 "machine: memoryModel disagrees with the topology "
                 "spec (use MachineConfig::fromTopology)");
        fatal_if(cfg_.topology->nodeCount() != cfg_.nodes.size(),
                 "machine: node list disagrees with the topology spec "
                 "(use MachineConfig::fromTopology)");
        for (const auto &nc : cfg_.nodes) {
            const TopologyNode *tn = cfg_.topology->nodeById(nc.id);
            fatal_if(!tn || tn->isa != nc.isa || tn->core != nc.core,
                     "machine: node ", nc.id, " disagrees with the "
                     "topology spec (use MachineConfig::fromTopology)");
        }
    }
    // Per-node tables below (IPI counters, tracer tracks) index by
    // NodeId, so ids must be dense {0..n-1}.
    std::vector<bool> seen(cfg_.nodes.size(), false);
    for (const auto &nc : cfg_.nodes) {
        fatal_if(nc.id >= cfg_.nodes.size() || seen[nc.id],
                 "machine: node ids must be dense and unique (id ",
                 nc.id, " in a ", cfg_.nodes.size(), "-node machine)");
        seen[nc.id] = true;
    }

    bool sharedLlc = cfg_.memoryModel == MemoryModel::FullyShared &&
                     cfg_.sharedLlcWhenFullyShared;
    CacheGeometry sharedGeom{cfg_.l3Size, 16};
    domain_ = std::make_unique<CoherenceDomain>(
        map_, cfg_.snoopCosts, sharedLlc ? &sharedGeom : nullptr);
    domain_->setBroadcastMode(!cfg_.snoopFilterEnabled);

    for (const auto &nc : cfg_.nodes) {
        auto geom = HierarchyGeometry::paperDefault(cfg_.l3Size);
        const LatencyProfile &prof = latencyProfile(nc.core);
        if (prof.l3 == 0)
            geom.l3.sizeBytes = 0; // e.g. Cortex-A72: no L3
        domain_->addNode(nc.id, geom, prof);
        nodes_.push_back(std::make_unique<Node>(nc));
    }
    byId_.assign(nodes_.size(), nullptr);
    for (auto &n : nodes_)
        byId_[n->id()] = n.get();
    ipisReceived_.assign(nodes_.size(), 0);
    links_.assign(nodes_.size() * nodes_.size(),
                  static_cast<std::uint8_t>(LinkState::Up));
    if (tracer_.enabled())
        domain_->setTracer(&tracer_);
    if (cfg_.faultPlan) {
        injector_ = std::make_unique<FaultInjector>(*cfg_.faultPlan);
        injector_->setTracer(&tracer_);
        for (const LinkEvent &ev : cfg_.faultPlan->linkSchedule) {
            panic_if(ev.from >= nodes_.size() || ev.to >= nodes_.size(),
                     "link schedule names unknown node");
        }
        partitionArmed_ = cfg_.faultPlan->linkFaultsPlanned();
    }
}

Node &
Machine::node(NodeId id)
{
    panic_if(id >= byId_.size(), "unknown node ", id);
    return *byId_[id];
}

const Node &
Machine::node(NodeId id) const
{
    panic_if(id >= byId_.size(), "unknown node ", id);
    return *byId_[id];
}

Node &
Machine::nodeByIsa(IsaType isa)
{
    // N-node machines can run the same ISA on several nodes; an
    // ISA-keyed lookup is only well-defined when exactly one alive
    // node matches, so name the ambiguity instead of silently
    // returning whichever node was built first.
    Node *match = nullptr;
    for (auto &n : nodes_) {
        if (n->isa() != isa || !n->alive())
            continue;
        panic_if(match, "nodeByIsa(", isaName(isa),
                 "): ambiguous — nodes ", match->id(), " and ",
                 n->id(), " both run ", isaName(isa),
                 "; address nodes by id in N-node topologies");
        match = n.get();
    }
    panic_if(!match, "no alive node with ISA ", isaName(isa));
    return *match;
}

Cycles
Machine::dataAccess(NodeId nid, AccessType type, Addr pa, unsigned size)
{
    if (LaneContext *lc = tlsLaneContext(); lc && !lc->owns(nid)) {
        // A lane touched a node it does not own. Functional mode
        // charges a flat per-access latency, which is additive and
        // can be staged; a cache-model access would mutate foreign
        // hierarchy state mid-epoch, which the epoch guards exist to
        // forbid — partition the workload so each node's accesses run
        // on its owner lane.
        panic_if(cfg_.cachePluginEnabled,
                 "parallel session: cache-mode access to foreign node ",
                 nid, " from lane ", lc->lane);
        Cycles lat = node(nid).profile().l1;
        lc->stageCharge(StagedCharge::Kind::Stall, nid, nid, lat);
        return lat;
    }
    if (accessTrace_)
        accessTrace_(nid, type, pa, size);
    Node &n = node(nid);
    Cycles lat;
    if (cfg_.cachePluginEnabled) {
        lat = domain_->access(nid, type, pa, size).latency;
    } else {
        // Functional mode: flat per-access cost, as when the paper
        // disables the Cache plugin (§9.2.8).
        lat = n.profile().l1;
    }
    n.stall(lat);
    maybeFireCrash(nid);
    return lat;
}

Cycles
Machine::streamAccess(NodeId nid, AccessType type, Addr pa,
                      unsigned size, unsigned mlp)
{
    if (mlp == 0)
        mlp = cfg_.streamMlp;
    panic_if(mlp == 0, "streamAccess needs mlp >= 1");
    if (LaneContext *lc = tlsLaneContext(); lc && !lc->owns(nid)) {
        panic_if(cfg_.cachePluginEnabled,
                 "parallel session: cache-mode stream access to "
                 "foreign node ",
                 nid, " from lane ", lc->lane);
        Cycles lat = node(nid).profile().l1;
        lc->stageCharge(StagedCharge::Kind::Stall, nid, nid, lat);
        return lat;
    }
    if (accessTrace_)
        accessTrace_(nid, type, pa, size);
    Node &n = node(nid);
    if (!cfg_.cachePluginEnabled || size == 0) {
        Cycles lat = n.profile().l1;
        n.stall(lat);
        maybeFireCrash(nid);
        return lat;
    }
    Cycles total = 0;
    Addr first = lineBase(pa);
    Addr last = lineBase(pa + size - 1);
    for (Addr line = first; line <= last; line += cacheLineSize) {
        AccessResult r = domain_->accessLine(nid, type, line);
        // Misses overlap; hits are already pipelined-cheap.
        if (r.level == HitLevel::Memory)
            total += (r.latency + mlp - 1) / mlp;
        else
            total += r.latency;
    }
    n.stall(total);
    maybeFireCrash(nid);
    return total;
}

void
Machine::retire(NodeId nid, ICount n)
{
    if (LaneContext *lc = tlsLaneContext(); lc && !lc->owns(nid)) {
        lc->stageCharge(StagedCharge::Kind::Retire, nid, nid, n);
        return;
    }
    if (retireTrace_)
        retireTrace_(nid, n);
    node(nid).retire(n);
    maybeFireCrash(nid);
}

void
Machine::stall(NodeId nid, Cycles c)
{
    if (LaneContext *lc = tlsLaneContext(); lc && !lc->owns(nid)) {
        lc->stageCharge(StagedCharge::Kind::Stall, nid, nid, c);
        return;
    }
    node(nid).stall(c);
    maybeFireCrash(nid);
}

Cycles
Machine::ipiCycles(NodeId nid) const
{
    const Node &n = node(nid);
    return usToCycles(cfg_.crossIsaIpiUs, n.profile().ghz);
}

Cycles
Machine::sendIpi(NodeId from, NodeId to)
{
    // A dead node neither raises nor takes interrupts. deadNodes_
    // only changes at epoch barriers during parallel sessions, so
    // this read is stable within an epoch.
    if (anyNodeDead() && (!nodeAlive(from) || !nodeAlive(to)))
        return 0;
    if (anyLinkImpaired() &&
        rawLinkState(from, to) == LinkState::Severed) {
        // The interrupt fabric rides the message links: on a severed
        // link the IPI is swallowed. Coherent *memory* stays up —
        // fused-design data written across a partition lands, only
        // the doorbell is lost. Counted so the asymmetry is visible.
        injector_->partition().counter("ipis_swallowed") += 1;
        tracer_.instant(TraceCategory::Chaos, "link.ipi_swallowed",
                        from, 0, from, to);
        return 0;
    }
    if (LaneContext *lc = tlsLaneContext(); lc && !lc->owns(to)) {
        // Drop faults were rejected at session start (the per-site
        // rng draw order would depend on host scheduling), so the
        // staged delivery is unconditional.
        lc->stageCharge(StagedCharge::Kind::Ipi, to, from, 0);
        return ipiCycles(to);
    }
    if (injector_ && injector_->shouldDropIpi(from, to))
        return 0;
    return deliverIpi(from, to);
}

Cycles
Machine::deliverIpi(NodeId from, NodeId to)
{
    Node &dst = node(to);
    Cycles lat = ipiCycles(to);
    // The receiver pays the delivery latency; the span covers it.
    Cycles start = dst.cycles();
    dst.stall(lat);
    ++ipisReceived_[to];
    dst.ipisReceivedStat() += 1;
    tracer_.emit(TraceCategory::Ipi, "ipi.deliver", to, 0, start,
                 dst.cycles(), from, to);
    return lat;
}

void
Machine::fireScheduledIfDue(NodeId nid)
{
    if (injector_->crashArmed())
        fireCrashIfDue(nid);
    if (injector_->linkEventsArmed())
        fireLinkEventsIfDue();
}

void
Machine::fireCrashIfDue(NodeId nid)
{
    if (injector_->shouldCrashNode(nid, node(nid).cycles()))
        killNode(nid);
}

void
Machine::fireLinkEventsIfDue()
{
    // One event per poll iteration: the hook a transition invokes
    // (heal/reconcile, rejoin) advances clocks itself, which can make
    // further schedule entries due — the injector's fired flags make
    // the re-entrant polls idempotent.
    while (const LinkEvent *ev = injector_->pollLinkEvent(
               [this](NodeId n) { return node(n).cycles(); })) {
        setLinkState(ev->from, ev->to, ev->state);
    }
}

void
Machine::setLinkState(NodeId from, NodeId to, LinkState s)
{
    panic_if(!injector_,
             "setLinkState without fault machinery: attach a "
             "FaultPlan (an empty one is enough)");
    panic_if(from >= byId_.size() || to >= byId_.size() || from == to,
             "setLinkState(", from, ", ", to, "): bad link");
    LinkState old = rawLinkState(from, to);
    partitionArmed_ = true;
    if (old == s)
        return;
    links_[from * byId_.size() + to] = static_cast<std::uint8_t>(s);
    if (old == LinkState::Up)
        ++impairedLinks_;
    else if (s == LinkState::Up)
        --impairedLinks_;
    StatGroup &part = injector_->partition();
    const char *name = "link.up";
    switch (s) {
      case LinkState::Up:
        part.counter("links_healed") += 1;
        break;
      case LinkState::Severed:
        part.counter("links_severed") += 1;
        name = "link.severed";
        break;
      case LinkState::Lossy:
        part.counter("links_lossy") += 1;
        name = "link.lossy";
        break;
      case LinkState::Delayed:
        part.counter("links_delayed") += 1;
        name = "link.delayed";
        break;
    }
    tracer_.instant(TraceCategory::Chaos, name, from, 0, from, to);
    if (linkHook_)
        linkHook_(from, to, s);
}

void
Machine::killNode(NodeId id)
{
    Node &n = node(id);
    if (!n.alive())
        return;
    n.setAlive(false);
    ++deadNodes_;
    n.stats().counter("crashes") += 1;
    tracer_.instant(TraceCategory::Chaos, "crash.node_dead", id, 0,
                    id, n.cycles());
}

void
Machine::reviveNode(NodeId id, Cycles clock)
{
    Node &n = node(id);
    panic_if(n.alive(), "reviveNode(", id, "): node is not dead");
    panic_if(deadNodes_ == 0, "reviveNode with no dead nodes");
    n.syncClock(clock);
    n.setAlive(true);
    --deadNodes_;
    n.stats().counter("revives") += 1;
    tracer_.instant(TraceCategory::Chaos, "crash.node_revive", id, 0,
                    id, clock);
}

std::uint64_t
Machine::ipisReceived(NodeId nid) const
{
    panic_if(nid >= ipisReceived_.size(), "unknown node");
    return ipisReceived_[nid];
}

Cycles
Machine::totalRuntime() const
{
    Cycles total = 0;
    for (const auto &n : nodes_)
        total += n->cycles();
    return total;
}

Cycles
Machine::maxRuntime() const
{
    Cycles best = 0;
    for (const auto &n : nodes_)
        best = std::max(best, n->cycles());
    return best;
}

void
Machine::beginParallelSession(unsigned threads)
{
    panic_if(parallelActive_, "nested parallel sessions");
    panic_if(nodes_.size() > 64,
             "parallel sessions support at most 64 nodes");
    if (threads > 1) {
        // Reject anything whose per-access side effects depend on
        // the global interleaving of accesses rather than per-node
        // program order: replay hooks see a global stream, event
        // tracing timestamps against a global observer, and every
        // non-crash fault site draws from its rng in arrival order.
        panic_if(accessTrace_ || retireTrace_,
                 "parallel session: trace hooks capture a global "
                 "access order and cannot run multi-threaded");
        panic_if(tracer_.enabled(),
                 "parallel session: event tracing is single-thread "
                 "only (set hostThreads = 1)");
        panic_if(injector_ && injector_->plan().any(),
                 "parallel session: transient fault sites draw rng "
                 "in global arrival order; only scheduled crash "
                 "plans are supported multi-threaded");
        panic_if(injector_ &&
                     !injector_->plan().linkScheduleParallelSafe(),
                 "parallel session: lossy/delayed links draw rng or "
                 "park messages in arrival order; only sever/heal "
                 "link schedules are supported multi-threaded");
        for (std::uint8_t l : links_) {
            LinkState s = static_cast<LinkState>(l);
            panic_if(s == LinkState::Lossy || s == LinkState::Delayed,
                     "parallel session: a link is currently "
                     "lossy/delayed; heal it (or sever it) before "
                     "running multi-threaded");
        }
    }
    parallelActive_ = true;
    domain_->setParallelGuard(true);
}

void
Machine::endParallelSession()
{
    panic_if(!parallelActive_, "endParallelSession: no session");
    domain_->setParallelGuard(false);
    parallelActive_ = false;
}

Cycles
Machine::minCrossNodeLookahead() const
{
    Cycles w = ~Cycles(0);
    for (const auto &n : nodes_)
        w = std::min(w, ipiCycles(n->id()));
    return std::max<Cycles>(w, 1);
}

void
Machine::pollCrashSites()
{
    if (!injector_)
        return;
    if (injector_->crashArmed()) {
        for (NodeId nid = 0; nid < byId_.size(); ++nid)
            fireCrashIfDue(nid);
    }
    if (injector_->linkEventsArmed())
        fireLinkEventsIfDue();
}

void
Machine::fenceParallelGuards()
{
    domain_->fenceParallelEpoch();
}

void
Machine::applyStagedCharge(const StagedCharge &c)
{
    switch (c.kind) {
      case StagedCharge::Kind::Stall:
        node(c.dst).stall(c.amount);
        return;
      case StagedCharge::Kind::Retire:
        node(c.dst).retire(c.amount);
        return;
      case StagedCharge::Kind::Ipi:
        // Liveness and link state were checked at send time; a node
        // crashed — or a link severed — at an intervening barrier
        // swallows the charge like any retire on a frozen clock, but
        // skips the delivery counters too.
        if (nodeAlive(c.dst) &&
            linkState(c.from, c.dst) != LinkState::Severed)
            deliverIpi(c.from, c.dst);
        return;
    }
    panic("unknown staged charge kind");
}

void
Machine::resetTiming(bool flushCaches)
{
    for (auto &n : nodes_)
        n->resetTime();
    if (flushCaches)
        domain_->flushAll();
    std::fill(ipisReceived_.begin(), ipisReceived_.end(), 0);
}

} // namespace stramash
