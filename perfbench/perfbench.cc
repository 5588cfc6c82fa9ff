/**
 * @file
 * Measurement core of the repository benchmark; run.py drives it.
 *
 * Every workload is built and run through the public API only:
 * harness::TestSystem and ExperimentConfig, the stats registry, and
 * each layer's public functions. A workload's "rep" is a fixed list of
 * fresh systems (one per Fig. 9 policy, one 32-core machine, or a
 * block of tenant episodes). Modes:
 *
 *   timed   repeats the rep until --seconds of host time have passed
 *           and reports host times per rep, the per-system packet
 *           conservation figures and simulated-stats digests, the
 *           first rep's layer counters and latency samples, and a
 *           mid-run checkpoint/restore check.
 *   traced  alternates untraced reps with reps that record a host
 *           span around every call into a layer, then runs the layer
 *           probes (scheduler, Toeplitz hash, cache and directory).
 *   stage   (IDIO_TRACE build only) runs one short slice with the
 *           packet tracer on and writes the Chrome trace plus totals
 *           sidecar that tools/trace_summary.py reads.
 *
 * The result is one JSON document (--out); run.py derives the metrics
 * and applies the output checks.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../bench/tenant_scenario.hh"
#include "cache/directory.hh"
#include "cache/hierarchy.hh"
#include "gen/traffic.hh"
#include "harness/system.hh"
#include "harness/trace_artifacts.hh"
#include "net/flow.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/json.hh"

namespace
{

using Clock = std::chrono::steady_clock;

/** Simulated time advanced per TestSystem::runFor call. */
constexpr sim::Tick quantum = 10 * sim::oneUs;

/** Episodes per tenant_ioca rep: >10 rpc samples beyond p99.9. */
constexpr std::uint64_t tenantEpisodes = 24;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** 64-bit FNV-1a. */
std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** One host-time span around a call into a layer. */
struct Span
{
    std::uint32_t id;
    std::uint32_t parent; ///< 0 for a root span
    const char *name;
    double startUs;
    double endUs;
};

/**
 * In-memory span log. Disabled logs record nothing, so untraced reps
 * run the same code as traced ones.
 */
class SpanLog
{
  public:
    void setEnabled(bool on) { enabled = on; }

    void
    open(const char *name)
    {
        if (!enabled)
            return;
        const auto id = static_cast<std::uint32_t>(spans.size() + 1);
        spans.push_back(
            {id, stack.empty() ? 0 : stack.back(), name, nowUs(), 0.0});
        stack.push_back(id);
    }

    void
    close()
    {
        if (!enabled)
            return;
        spans[stack.back() - 1].endUs = nowUs();
        stack.pop_back();
    }

    const std::vector<Span> &all() const { return spans; }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin)
            .count();
    }

    bool enabled = false;
    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
    std::vector<std::uint32_t> stack;
};

class Scope
{
  public:
    Scope(SpanLog &log, const char *name) : log(log) { log.open(name); }
    ~Scope() { log.close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log;
};

/** One fresh system of a rep. */
struct Plan
{
    std::string label;
    harness::ExperimentConfig cfg;
};

struct Workload
{
    std::string name;
    std::vector<Plan> plans;
    sim::Tick horizon = 0;
    /** Stop each system once its one burst has drained. */
    bool drain = false;
    /** Tick of the mid-run checkpoint (a quantum multiple). */
    sim::Tick ckptAt = 0;
    /** Seed-drawn RETA for the multi-queue port (empty = default). */
    std::vector<std::uint32_t> reta;
    /** Latency samples from the latency-critical tenant only. */
    bool latencyCriticalOnly = false;
};

/** The 32-core, 32-queue machine of ROADMAP's scaled headline. */
harness::ExperimentConfig
scaledConfig(std::uint64_t seed)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 32;
    cfg.rxQueues = 32;
    cfg.totalFlows = 1u << 20;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.rateGbps = 100.0;
    cfg.nic.ringSize = 256;
    cfg.applyPolicy(idio::Policy::Idio);
    cfg.seed = seed;
    return cfg;
}

/**
 * A seed-drawn permutation of the balanced round-robin RETA fill: the
 * same per-queue share, with the hash buckets dealt out by the seed,
 * as a host does when it draws its RSS key at boot.
 */
std::vector<std::uint32_t>
seededReta(std::uint32_t entries, std::uint32_t queues, std::uint64_t seed)
{
    std::vector<std::uint32_t> reta(entries);
    for (std::uint32_t i = 0; i < entries; ++i)
        reta[i] = i % queues;
    sim::Rng rng(seed);
    for (std::uint32_t i = entries - 1; i > 0; --i)
        std::swap(reta[i], reta[rng.below(i + 1)]);
    return reta;
}

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "fig09_sweep") {
        // Paper Fig. 9 machine. The seed shifts the burst period by
        // 1-20 us, moving later bursts against the PMD poll loop and
        // the IDIO controller's sampling intervals.
        sim::Rng rng(seed);
        const sim::Tick period =
            2 * sim::oneMs + (1 + rng.below(20)) * sim::oneUs;
        for (auto policy :
             {idio::Policy::Ddio, idio::Policy::InvalidateOnly,
              idio::Policy::PrefetchOnly, idio::Policy::Static,
              idio::Policy::Idio}) {
            harness::ExperimentConfig cfg;
            cfg.numNfs = 2;
            cfg.nfKind = harness::NfKind::TouchDrop;
            cfg.rateGbps = 100.0;
            cfg.traffic = harness::TrafficKind::Bursty;
            cfg.burstPeriod = period;
            cfg.applyPolicy(policy);
            cfg.seed = seed;
            w.plans.push_back({idio::policyName(policy), cfg});
        }
        w.horizon = 6 * sim::oneMs; // three bursts
        w.ckptAt = 2100 * sim::oneUs;
    } else if (name == "rss32_sync" || name == "split32_links") {
        auto cfg = scaledConfig(seed);
        cfg.traffic = harness::TrafficKind::Bursty;
        cfg.burstPeriod = 10 * sim::oneSec; // one burst per system
        if (name == "split32_links") {
            cfg.links.pcieNs = 500.0;
            cfg.links.meshNs = 250.0;
            cfg.sharded = true;
            cfg.shardJobs = 4;
        }
        w.plans.push_back({"idio", cfg});
        w.horizon = 50 * sim::oneMs;
        w.drain = true;
        w.ckptAt = 500 * sim::oneUs;
        w.reta = seededReta(cfg.rssTableEntries, cfg.rxQueues, seed);
    } else if (name == "tenant_ioca") {
        const bench::TenantScheme *ioca = nullptr;
        for (const auto &s : bench::tenantSchemes) {
            if (std::strcmp(s.label, "ioca") == 0)
                ioca = &s;
        }
        if (ioca == nullptr)
            sim::fatal("tenant scenario has no 'ioca' scheme");
        // Episode seeds are base + episode with base = seed * episodes,
        // so runs with different seeds share no episode.
        for (std::uint64_t e = 0; e < tenantEpisodes; ++e) {
            auto cfg = bench::tenantMixConfig(*ioca);
            cfg.seed = seed * tenantEpisodes + e;
            w.plans.push_back({"episode" + std::to_string(e), cfg});
        }
        w.horizon = bench::tenantHorizon;
        w.ckptAt = bench::tenantHorizon / 2;
        w.latencyCriticalOnly = true;
    } else {
        return std::nullopt;
    }
    return w;
}

/** Layer counters of one system, summed over a rep by name. */
using Counts = std::map<std::string, double>;

struct SystemResult
{
    std::string label;
    double buildS = 0.0;
    double startS = 0.0;
    double runS = 0.0;
    double simUs = 0.0;
    std::uint64_t generated = 0;
    std::uint64_t mac = 0;   ///< packets that reached the NIC MACs
    std::uint64_t drops = 0; ///< ring-full drops at the NIC
    std::uint64_t processed = 0;
    std::uint64_t held = 0;  ///< accepted, not yet processed
    std::uint64_t mlcWb = 0;
    std::uint64_t digest = 0;
    Counts counts;
    std::vector<std::uint64_t> latency;
};

std::uint64_t
statsDigest(harness::TestSystem &sys)
{
    std::ostringstream os;
    stats::writeJson(os, sys.simulation().statsRegistry());
    return fnv1a(os.str());
}

nic::RxRing &
ringOf(harness::TestSystem &sys, std::uint32_t nf)
{
    return sys.config().multiQueue() ? sys.nicPort(0).rxRing(nf)
                                     : sys.nicPort(nf).rxRing(0);
}

/** Sum of every registry stat called @p stat in a group under @p in. */
double
registrySum(harness::TestSystem &sys, const char *in, const char *stat)
{
    double sum = 0.0;
    sys.simulation().statsRegistry().forEach(
        [&](const stats::StatGroup &g, const stats::Stat &s) {
            if (s.name() == stat &&
                g.name().find(in) != std::string::npos)
                sum += s.value();
        });
    return sum;
}

Counts
layerCounts(harness::TestSystem &sys, const SystemResult &r)
{
    Counts c;
    auto &sim = sys.simulation();
    auto &hier = sys.hierarchy();
    c["packets"] = double(r.processed);
    c["events"] = double(sim.totalProcessedEvents());
    c["sim_ticks"] = double(sim.now());
    if (auto *ex = sys.shardExecutor()) {
        c["windows"] = double(ex->windowsRun());
        c["cross_posts"] = double(ex->crossPostsDelivered());
    }
    for (std::uint32_t core = 0; core < hier.numCores(); ++core) {
        auto &l1 = hier.l1(core);
        auto &mlc = hier.mlcOf(core);
        c["core_accesses"] += double(l1.hits.get() + l1.misses.get());
        c["mlc_hits"] += double(mlc.hits.get());
        c["mlc_misses"] += double(mlc.misses.get());
        c["mlc_wb"] += double(mlc.writebacks.get());
    }
    c["pcie_writes"] = double(hier.pcieWrites.get());
    c["dir_lookups"] = double(hier.directory().lookups.get());
    auto &llc = hier.llc();
    c["llc_hits"] = double(llc.hits.get());
    c["llc_misses"] = double(llc.misses.get());
    c["llc_victim_inserts"] = double(llc.victimInserts.get());
    c["ddio_way_evictions"] = double(llc.ddioWayEvictions.get());
    auto &dram = hier.dram();
    c["dram_reads"] = double(dram.readCount());
    c["dram_writes"] = double(dram.writeCount());
    c["dram_queued_ticks"] = registrySum(sys, ".dram", "queuedTicks");
    c["dma_lines"] = registrySum(sys, ".dma", "linesWritten");
    for (std::uint32_t i = 0; i < sys.numNfs(); ++i) {
        c["polls_empty"] += double(sys.nf(i).emptyPolls.get());
        c["polls_nonempty"] += double(sys.nf(i).batches.get());
        c["nf_busy_ticks"] += double(sys.core(i).busyTicks.get());
    }
    c["nf_core_ticks"] = double(sim.now()) * sys.numNfs();
    auto &ctrl = sys.controller();
    c["idio_hints"] = double(ctrl.headerHints.get() +
                             ctrl.payloadHints.get());
    c["hints_received"] = registrySum(sys, "prefetcher", "hintsReceived");
    c["hints_dropped"] = registrySum(sys, "prefetcher", "hintsDropped");
    c["prefetch_fills"] = registrySum(sys, "prefetcher", "fills");
    if (auto *ioca = sys.iocaController()) {
        c["tenant_evaluations"] = double(ioca->evaluations.get());
        c["tenant_reallocations"] = double(ioca->reallocations.get());
    }
    c["rx_mac"] = double(r.mac);
    c["rx_drops"] = double(r.drops);
    return c;
}

/** Build, apply the RETA, start. */
std::unique_ptr<harness::TestSystem>
buildSystem(const Workload &w, const Plan &p, SpanLog &log,
            SystemResult *r)
{
    auto t = Clock::now();
    std::unique_ptr<harness::TestSystem> sys;
    {
        Scope s(log, "harness.build");
        sys = std::make_unique<harness::TestSystem>(p.cfg);
    }
    if (!w.reta.empty()) {
        Scope s(log, "nic.set_reta");
        sys->nicPort(0).flowDirector().setIndirection(w.reta);
    }
    if (r != nullptr)
        r->buildS = secondsSince(t);
    t = Clock::now();
    {
        Scope s(log, "harness.start");
        sys->start();
    }
    if (r != nullptr)
        r->startS = secondsSince(t);
    return sys;
}

/**
 * Advance @p sys in quanta until @p until, or until its burst has
 * drained on a draining workload.
 */
void
advance(harness::TestSystem &sys, const Workload &w, sim::Tick until,
        SpanLog &log)
{
    const std::uint64_t expected =
        w.drain ? sys.config().expectedBurstTotal() : 0;
    while (sys.simulation().now() < until) {
        {
            Scope s(log, "harness.runFor");
            sys.runFor(quantum);
        }
        if (w.drain) {
            harness::Totals t;
            {
                Scope s(log, "harness.totals");
                t = sys.totals();
            }
            if (t.processedPackets + t.rxDrops >= expected &&
                t.rxPackets >= expected)
                return;
        }
    }
}

/**
 * Packet bookkeeping of a system at a quantum boundary: generated
 * packets and the ones still held (an mbuf that is neither free nor
 * armed on an idle descriptor holds an accepted packet: DMA in flight,
 * completed on the ring, or consumed and not yet finished).
 */
void
countOffered(harness::TestSystem &sys, SystemResult &r)
{
    const std::uint32_t gens = sys.config().multiQueue() ? 1 : sys.numNfs();
    for (std::uint32_t i = 0; i < gens; ++i)
        r.generated += sys.trafficGen(i).packetsSent.get();
    for (std::uint32_t i = 0; i < sys.numNfs(); ++i) {
        const auto &pool = sys.mempool(i);
        r.held += pool.capacity() - pool.available() -
                  ringOf(sys, i).armedCount();
    }
}

void
collectLatency(harness::TestSystem &sys, const Workload &w,
               std::vector<std::uint64_t> &out)
{
    auto *mgr = sys.tenantManager();
    for (std::uint32_t i = 0; i < sys.numNfs(); ++i) {
        if (w.latencyCriticalOnly) {
            const auto &t = mgr->tenant(mgr->tenantOfCore(i));
            if (t.slo != tenant::SloClass::LatencyCritical)
                continue;
        }
        const auto &s = sys.nf(i).latency.rawSamples();
        out.insert(out.end(), s.begin(), s.end());
    }
}

SystemResult
runSystem(const Workload &w, const Plan &p, SpanLog &log, bool detail)
{
    SystemResult r;
    r.label = p.label;
    auto sys = buildSystem(w, p, log, &r);
    const auto t0 = Clock::now();
    advance(*sys, w, w.horizon, log);
    r.runS = secondsSince(t0);
    r.simUs = sim::ticksToUs(sys->simulation().now());
    harness::Totals t;
    {
        Scope s(log, "harness.totals");
        t = sys->totals();
    }
    r.mac = t.rxPackets;
    r.drops = t.rxDrops;
    r.processed = t.processedPackets;
    r.mlcWb = t.mlcWritebacks;
    countOffered(*sys, r);
    r.digest = statsDigest(*sys);
    if (detail) {
        r.counts = layerCounts(*sys, r);
        collectLatency(*sys, w, r.latency);
    }
    {
        Scope s(log, "harness.teardown");
        sys.reset();
    }
    return r;
}

struct Rep
{
    bool traced = false;
    std::vector<SystemResult> systems;
};

Rep
runRep(const Workload &w, SpanLog &log, bool detail)
{
    Rep rep;
    for (const auto &p : w.plans)
        rep.systems.push_back(runSystem(w, p, log, detail));
    return rep;
}

struct CkptCheck
{
    std::uint64_t resumed = 0;  ///< checkpointed system, run on
    std::uint64_t restored = 0; ///< fresh system restored from the blob
    double saveMs = 0.0;
    double restoreMs = 0.0;
    std::size_t bytes = 0;
};

/**
 * Checkpoint the rep's first system mid-run, finish it, then restore
 * the blob into a fresh system and finish that one too.
 */
CkptCheck
checkpointCheck(const Workload &w, SpanLog &log)
{
    CkptCheck c;
    const Plan &p = w.plans.front();
    std::vector<std::uint8_t> blob;
    {
        auto sys = buildSystem(w, p, log, nullptr);
        advance(*sys, w, w.ckptAt, log);
        const auto t = Clock::now();
        {
            Scope s(log, "ckpt.save");
            blob = sys->checkpoint();
        }
        c.saveMs = secondsSince(t) * 1e3;
        advance(*sys, w, w.horizon, log);
        c.resumed = statsDigest(*sys);
    }
    c.bytes = blob.size();
    auto sys = buildSystem(w, p, log, nullptr);
    const auto t = Clock::now();
    {
        Scope s(log, "ckpt.restore");
        sys->restore(blob);
    }
    c.restoreMs = secondsSince(t) * 1e3;
    advance(*sys, w, w.horizon, log);
    c.restored = statsDigest(*sys);
    return c;
}

/** Median of per-batch ns/op over @p batches runs of @p fn. */
template <typename Fn>
double
medianNsPerOp(unsigned batches, Fn fn)
{
    std::vector<double> v;
    for (unsigned b = 0; b < batches; ++b)
        v.push_back(fn());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

double
probeEventQueue()
{
    constexpr std::uint64_t ops = 200'000;
    sim::EventQueue q;
    std::uint64_t sink = 0;
    const auto t = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
        q.schedule(q.now() + 10, [&sink] { ++sink; });
        q.runUntil(q.now() + 10);
    }
    const double ns = secondsSince(t) * 1e9 / double(ops);
    if (sink != ops)
        sim::fatal("event probe fired %llu of %llu events",
                   (unsigned long long)sink, (unsigned long long)ops);
    return ns;
}

/** The flows the workload's generators emit. */
std::vector<net::FiveTuple>
workloadFlows(const harness::ExperimentConfig &cfg)
{
    std::vector<net::FiveTuple> flows;
    if (cfg.multiQueue()) {
        for (std::uint64_t i = 0; i < 65536; ++i)
            flows.push_back(gen::synthFlowTuple(i));
        return flows;
    }
    const std::uint32_t ports =
        cfg.tenantMode() ? cfg.tenantNfCores() : cfg.numNfs;
    for (std::uint32_t i = 0; i < ports; ++i) {
        for (const auto &f : gen::makeFlows(
                 cfg.flowsPerNf, static_cast<std::uint16_t>(5000 + 100 * i),
                 cfg.dscp))
            flows.push_back(f.tuple);
    }
    return flows;
}

/** Keeps the probed hashes observable to the optimiser. */
volatile std::uint32_t toeplitzSink = 0;

double
probeToeplitz(const std::vector<net::FiveTuple> &flows)
{
    constexpr std::uint64_t ops = 65536;
    std::uint32_t sink = 0;
    const auto t = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i)
        sink ^= net::toeplitzHash(flows[i % flows.size()]);
    const double ns = secondsSince(t) * 1e9 / double(ops);
    toeplitzSink = sink;
    return ns;
}

struct CacheProbe
{
    double coreReadNs = 0.0;
    double pcieWriteNs = 0.0;
    double invalidateNs = 0.0;
    double dirAddNs = 0.0;
};

/**
 * Replay a ring-shaped DMA-then-consume stream through a standalone
 * hierarchy with the workload's core count: each packet's lines are
 * DMA-written, read by the core that owns the ring slot, then
 * self-invalidated; the directory is driven with the same lines.
 */
CacheProbe
probeCache(const harness::ExperimentConfig &cfg, std::uint32_t cores)
{
    sim::Simulation s(1);
    cache::HierarchyConfig hc = cfg.hier;
    hc.numCores = cores;
    cache::MemoryHierarchy hier(s, "probe", hc);
    const std::uint64_t dirEntries =
        std::uint64_t(double(cores) * double(hc.mlc.sizeBytes) /
                      double(mem::lineSize) * hc.directoryCoverage);
    cache::MlcDirectory dir(s, "probe.dir", dirEntries, hc.directoryAssoc,
                            hc.replacement);

    const std::uint32_t lines =
        (cfg.frameBytes + mem::lineSize - 1) / mem::lineSize;
    const std::uint64_t buffers =
        std::uint64_t(cfg.nic.ringSize + cfg.mempoolExtra) * cores;
    const std::uint64_t packets = 4 * buffers;
    constexpr sim::Addr base = 1ull << 30;
    constexpr std::uint64_t bufBytes = 2048;

    double readS = 0.0, writeS = 0.0, invalS = 0.0, dirS = 0.0;
    std::uint64_t sink = 0;
    for (std::uint64_t k = 0; k < packets; ++k) {
        const sim::Addr buf = base + (k % buffers) * bufBytes;
        const auto core = static_cast<sim::CoreId>(k % cores);
        auto t = Clock::now();
        for (std::uint32_t l = 0; l < lines; ++l)
            hier.pcieWrite(buf + l * mem::lineSize);
        writeS += secondsSince(t);
        t = Clock::now();
        for (std::uint32_t l = 0; l < lines; ++l)
            sink += hier.coreRead(core, buf + l * mem::lineSize).latency;
        readS += secondsSince(t);
        t = Clock::now();
        for (std::uint32_t l = 0; l < lines; ++l)
            sink += hier.coreInvalidate(core, buf + l * mem::lineSize);
        invalS += secondsSince(t);
        t = Clock::now();
        for (std::uint32_t l = 0; l < lines; ++l)
            sink += dir.add(core, buf + l * mem::lineSize).valid;
        dirS += secondsSince(t);
        for (std::uint32_t l = 0; l < lines; ++l)
            dir.remove(core, buf + l * mem::lineSize);
    }
    if (sink == 0)
        sim::fatal("cache probe accumulated no latency");
    const double ops = double(packets) * lines;
    return {readS * 1e9 / ops, writeS * 1e9 / ops, invalS * 1e9 / ops,
            dirS * 1e9 / ops};
}

void
writeCounts(stats::JsonWriter &j, const char *key, const Counts &c)
{
    j.beginObject(key);
    for (const auto &[k, v] : c)
        j.field(k, v);
    j.end();
}

void
writeRep(stats::JsonWriter &j, const Rep &rep)
{
    j.beginObject();
    j.field("traced", rep.traced);
    j.beginArray("systems");
    for (const auto &s : rep.systems) {
        j.beginObject();
        j.field("label", s.label);
        j.field("build_s", s.buildS);
        j.field("start_s", s.startS);
        j.field("run_s", s.runS);
        j.field("sim_us", s.simUs);
        j.field("generated", s.generated);
        j.field("mac", s.mac);
        j.field("drops", s.drops);
        j.field("processed", s.processed);
        j.field("held", s.held);
        j.field("mlc_wb", s.mlcWb);
        j.field("digest", hex64(s.digest));
        j.end();
    }
    j.end();
    j.end();
}

void
writeManifest(stats::JsonWriter &j, const Workload &w, std::uint64_t seed)
{
    const auto &cfg = w.plans.front().cfg;
    j.beginObject("manifest");
    j.field("workload", w.name);
    j.field("layout", cfg.tenantMode()   ? "tenant (legacy per-core ports)"
                      : cfg.multiQueue() ? "multi-queue (one port, RSS/RETA)"
                                         : "legacy (one port per NF, EP)");
    const std::uint32_t nfCores =
        cfg.tenantMode() ? cfg.tenantNfCores() : cfg.numNfs;
    const std::uint32_t cores =
        cfg.tenantMode() ? cfg.tenantCores()
                         : cfg.numNfs + (cfg.withAntagonist ? 1 : 0);
    j.field("cores", cores);
    j.field("nf_cores", nfCores);
    j.field("rx_queues", cfg.multiQueue() ? cfg.rxQueues : 1u);
    j.field("flows", cfg.multiQueue() ? cfg.totalFlows
                                      : std::uint64_t(cfg.flowsPerNf) *
                                            nfCores);
    j.field("reta", w.reta.empty() ? "default" : "seed-permuted");
    j.field("ring_size", cfg.nic.ringSize);
    j.field("frame_bytes", cfg.frameBytes);
    j.field("rate_gbps", cfg.rateGbps);
    j.field("burst_period_us", sim::ticksToUs(cfg.burstPeriod));
    j.field("link_pcie_ns", cfg.links.pcieNs);
    j.field("link_mesh_ns", cfg.links.meshNs);
    j.field("executor_workers", cfg.sharded ? cfg.shardJobs : 0u);
    j.beginArray("tenants");
    for (const auto &t : cfg.tenants)
        j.value(t.name + ":" + tenant::sloClassName(t.slo) + ":" +
                std::to_string(t.cores));
    j.end();
    j.field("tenant_partition",
            harness::tenantPartitionName(cfg.tenantPartition));
    std::vector<std::string> policies;
    for (const auto &p : w.plans) {
        const std::string name = idio::policyName(p.cfg.idio.policy);
        if (std::find(policies.begin(), policies.end(), name) ==
            policies.end())
            policies.push_back(name);
    }
    j.beginArray("policies");
    for (const auto &name : policies)
        j.value(name);
    j.end();
    j.field("systems_per_rep", std::uint64_t(w.plans.size()));
    j.field("horizon_us", sim::ticksToUs(w.horizon));
    j.field("drain_burst", w.drain);
    j.field("quantum_us", sim::ticksToUs(quantum));
    j.field("scheduler_backend",
            sim::EventQueue::backendName(sim::EventQueue::defaultBackend()));
    j.field("idio_trace", IDIO_TRACE != 0);
    j.field("idio_check_invariants", IDIO_CHECK_INVARIANTS != 0);
    j.field("host_nproc", std::thread::hardware_concurrency());
    j.field("seed", seed);
    j.end();
}

struct Options
{
    std::string workload;
    std::string mode = "timed";
    std::string out;
    std::uint64_t seed = 1;
    double seconds = 10.0;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --mode timed|traced|stage "
                 "--out FILE\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--mode")
                o.mode = v;
            else if (a == "--out")
                o.out = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else
                usage(("unknown option " + a).c_str());
        } catch (const std::exception &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload.empty() || o.out.empty())
        usage("--workload and --out are required");
    if (o.mode != "timed" && o.mode != "traced" && o.mode != "stage")
        usage("--mode must be timed, traced or stage");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

/**
 * Stage mode: one traced slice for tools/trace_summary.py. Every
 * source's ring is allocated up front, so each slice is sized to fit
 * its rings without truncation and ends quiescent (in split mode a
 * counter moves when its link message arrives): the IDIO system's
 * first burst period on fig09_sweep and a drained 512-packet burst on
 * the 32-core machines, both cross-checked against the totals
 * sidecar; episode 0 of tenant_ioca traced from after start(), so the
 * antagonist's warm-up is left out of the trace but not of the totals
 * and run.py does not cross-check that slice.
 */
int
runStage(const Workload &w, const Options &o)
{
#if IDIO_TRACE
    Plan p = w.plans.back().label == "IDIO" ? w.plans.back()
                                            : w.plans.front();
    Workload slice = w;
    std::size_t ring = 1u << 18;
    if (w.name == "fig09_sweep") {
        slice.horizon = 2 * sim::oneMs;
    } else if (w.drain) {
        p.cfg.burstPackets = 512;
        ring = 1u << 16;
    }
    // Only tenant mode warms an antagonist inside start().
    const bool afterStart = p.cfg.tenantMode();
    SpanLog off;
    const auto t = Clock::now();
    auto sys = std::make_unique<harness::TestSystem>(p.cfg);
    if (!w.reta.empty())
        sys->nicPort(0).flowDirector().setIndirection(w.reta);
    if (!afterStart)
        harness::enableTracing(*sys, ring);
    sys->start();
    if (afterStart)
        harness::enableTracing(*sys, ring);
    advance(*sys, slice, slice.horizon, off);
    if (w.drain)
        sys->runFor(quantum); // deliver the last link messages
    harness::writeTraceArtifacts(o.out, *sys);
    std::printf("stage slice: %s over %.1f us in %.2f s\n",
                p.label.c_str(), sim::ticksToUs(sys->simulation().now()),
                secondsSince(t));
    return 0;
#else
    (void)w;
    (void)o;
    std::fprintf(stderr, "perfbench: stage mode needs an IDIO_TRACE "
                         "build\n");
    return 2;
#endif
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    const auto workload = makeWorkload(o.workload, o.seed);
    if (!workload)
        usage(("unknown workload " + o.workload).c_str());
    const Workload &w = *workload;

    if (o.mode == "stage")
        return runStage(w, o);

    const bool traced = o.mode == "traced";
    SpanLog log;
    const auto start = Clock::now();
    std::vector<Rep> reps;
    reps.push_back(runRep(w, log, true));
    const std::vector<std::uint64_t> latency = [&] {
        std::vector<std::uint64_t> all;
        for (auto &s : reps.front().systems)
            all.insert(all.end(), s.latency.begin(), s.latency.end());
        return all;
    }();
    Counts counts;
    for (const auto &s : reps.front().systems)
        for (const auto &[k, v] : s.counts)
            counts[k] += v;

    // Peak memory of one pass over the workload's systems. Later reps
    // only add allocator-reuse jitter (rss32_sync peaks at 89.9 or
    // 95.1 MB depending on where freed arrays were placed), and the
    // checkpoint check holds two systems and a blob.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    // The first rep warms host caches and gathers the simulated
    // detail; run.py times the ones after it (at least three). Traced
    // mode alternates span-recording reps with plain ones so both
    // sides see the same host conditions.
    while (reps.size() < 4 || secondsSince(start) < o.seconds) {
        const bool spans = traced && reps.size() % 2 == 1;
        log.setEnabled(spans);
        reps.push_back(runRep(w, log, false));
        reps.back().traced = spans;
        log.setEnabled(false);
    }

    log.setEnabled(traced);
    const CkptCheck ck = checkpointCheck(w, log);

    CacheProbe cacheProbe;
    double eventNs = 0.0, toeplitzNs = 0.0;
    if (traced) {
        const auto &cfg = w.plans.front().cfg;
        {
            Scope s(log, "probe.sim.event");
            eventNs = medianNsPerOp(5, probeEventQueue);
        }
        {
            Scope s(log, "probe.net.toeplitz");
            const auto flows = workloadFlows(cfg);
            toeplitzNs = medianNsPerOp(5, [&] {
                return probeToeplitz(flows);
            });
        }
        {
            Scope s(log, "probe.cache");
            const std::uint32_t cores =
                cfg.tenantMode() ? cfg.tenantCores() : cfg.numNfs;
            cacheProbe = probeCache(cfg, cores);
        }
    }
    log.setEnabled(false);

    std::ofstream ofs(o.out);
    if (!ofs)
        sim::fatal("cannot write '%s'", o.out.c_str());
    {
        stats::JsonWriter j(ofs);
        j.beginObject();
        j.field("mode", o.mode);
        // Every span of this run belongs to this id.
        j.field("run_id",
                hex64(fnv1a(o.workload + "/" + std::to_string(o.seed) + "/" +
                            std::to_string(start.time_since_epoch().count()))));
        writeManifest(j, w, o.seed);
        j.beginArray("reps");
        for (const auto &r : reps)
            writeRep(j, r);
        j.end();
        writeCounts(j, "counts", counts);
        j.field("ticks_per_us", std::uint64_t(sim::oneUs));
        j.beginArray("latency_ticks");
        for (const auto v : latency)
            j.value(v);
        j.end();
        j.beginObject("ckpt");
        j.field("resumed", hex64(ck.resumed));
        j.field("restored", hex64(ck.restored));
        j.field("save_ms", ck.saveMs);
        j.field("restore_ms", ck.restoreMs);
        j.field("bytes", std::uint64_t(ck.bytes));
        j.end();
        j.field("peak_rss_kb", std::uint64_t(ru.ru_maxrss));
        if (traced) {
            j.beginObject("probes");
            j.field("sim.event_ns", eventNs);
            j.field("net.toeplitz_ns", toeplitzNs);
            j.field("cache.core_read_ns", cacheProbe.coreReadNs);
            j.field("cache.pcie_write_ns", cacheProbe.pcieWriteNs);
            j.field("cache.invalidate_ns", cacheProbe.invalidateNs);
            j.field("cache.dir_add_ns", cacheProbe.dirAddNs);
            j.end();
            j.beginArray("spans");
            for (const auto &s : log.all()) {
                j.beginObject();
                j.field("id", s.id);
                j.field("parent", s.parent);
                j.field("name", s.name);
                j.field("start_us", s.startUs);
                j.field("end_us", s.endUs);
                j.end();
            }
            j.end();
        }
        j.end();
    }
    ofs << "\n";
    return ofs ? 0 : 1;
}
