/**
 * @file
 * Split-link (modelled interconnect latency) integration gates.
 *
 * With LinkLatencyConfig set, the system decomposes into per-core,
 * NIC and uncore timing domains joined only by latency edges, and the
 * executor runs them under the conservative-window protocol. The
 * gates here: a split run
 * processes traffic end to end, is byte-identical — Totals,
 * stats-registry JSON and packet-lifecycle trace — across shard-job
 * counts (and to the one-worker non-sharded executor run), and
 * checkpoints mid-burst with messages in flight on the links.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "harness/trace_artifacts.hh"
#include "stats/json.hh"
#include "trace/chrome_export.hh"

namespace
{

constexpr sim::Tick quantum = 10 * sim::oneUs;

/** An 8-core, 8-RX-queue port with modelled PCIe and mesh latencies. */
harness::ExperimentConfig
splitConfig(std::uint32_t cores = 8, std::uint64_t flows = 1024)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = cores;
    cfg.rxQueues = cores;
    cfg.totalFlows = flows;
    cfg.nfKind = harness::NfKind::TouchDrop;
    cfg.traffic = harness::TrafficKind::Bursty;
    cfg.rateGbps = 100.0;
    cfg.burstPeriod = 10 * sim::oneSec; // one burst
    cfg.nic.ringSize = 256;
    cfg.links.pcieNs = 500.0;
    cfg.links.meshNs = 250.0;
    cfg.applyPolicy(idio::Policy::Idio);
    return cfg;
}

std::string
statsJson(harness::TestSystem &sys)
{
    std::ostringstream os;
    stats::writeJson(os, sys.simulation().statsRegistry());
    return os.str();
}

struct RunArtifacts
{
    harness::Totals totals;
    std::string stats;
    std::string trace;
};

RunArtifacts
runTraced(const harness::ExperimentConfig &cfg, const std::string &tag)
{
    harness::TestSystem sys(cfg);
    harness::enableTracing(sys, 1u << 14);
    sys.start();
    sys.runFor(2 * sim::oneMs);

    const std::string path =
        ::testing::TempDir() + "/split_" + tag + "_trace.json";
    EXPECT_TRUE(trace::writeChromeTrace(path,
                                        sys.simulation().tracer()));
    std::ifstream in(path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_FALSE(bytes.empty());
    return {sys.totals(), statsJson(sys), std::move(bytes)};
}

TEST(SplitLinks, BurstIsFullyProcessedAcrossDomains)
{
    const auto cfg = splitConfig();
    harness::TestSystem sys(cfg);
    ASSERT_NE(sys.splitFabric(), nullptr);
    ASSERT_NE(sys.shardExecutor(), nullptr);
    sys.start();
    sys.runFor(2 * sim::oneMs);

    const auto t = sys.totals();
    EXPECT_EQ(t.rxPackets, cfg.expectedBurstTotal());
    EXPECT_EQ(t.rxDrops, 0u);
    EXPECT_EQ(t.processedPackets, t.rxPackets);
    EXPECT_GT(sys.shardExecutor()->windowsRun(), 0u);
}

TEST(SplitLinks, RunIsByteIdenticalAcrossJobCounts)
{
    // The same split plan produces the same stats JSON and trace
    // bytes whether the executor runs its domains on 1 worker
    // (non-sharded), 2 or 4.
    const auto base = splitConfig();

    const auto j0 = runTraced(base, "plain");

    auto sharded = base;
    sharded.sharded = true;
    sharded.shardJobs = 2;
    const auto j2 = runTraced(sharded, "j2");

    sharded.shardJobs = 4;
    const auto j4 = runTraced(sharded, "j4");

    EXPECT_EQ(j2.totals, j0.totals);
    EXPECT_EQ(j2.stats, j0.stats);
    EXPECT_EQ(j2.trace, j0.trace);
    EXPECT_EQ(j4.totals, j0.totals);
    EXPECT_EQ(j4.stats, j0.stats);
    EXPECT_EQ(j4.trace, j0.trace);
}

TEST(SplitLinks, LinkMessagesAreCountedAcrossJobCounts)
{
    // The executor counts the link messages it moves at window
    // barriers; like everything else it is independent of workers.
    std::vector<std::uint64_t> msgs, windows;
    for (unsigned jobs : {1u, 2u, 4u}) {
        auto cfg = splitConfig();
        cfg.sharded = true;
        cfg.shardJobs = jobs;
        harness::TestSystem sys(cfg);
        sys.start();
        sys.runFor(2 * sim::oneMs);
        msgs.push_back(sys.shardExecutor()->crossPostsDelivered());
        windows.push_back(sys.shardExecutor()->windowsRun());
    }
    EXPECT_GT(msgs[0], 0u);
    EXPECT_EQ(msgs[1], msgs[0]);
    EXPECT_EQ(msgs[2], msgs[0]);
    EXPECT_EQ(windows[1], windows[0]);
    EXPECT_EQ(windows[2], windows[0]);
}

TEST(SplitLinks, LatencyChangesTimingButNotDelivery)
{
    // The links are real model latency, not bookkeeping: doubling
    // them must still deliver and process the whole burst, but the
    // run is not byte-identical to the faster fabric.
    const auto fast = splitConfig();
    auto slow = fast;
    slow.links.pcieNs = 2000.0;
    slow.links.meshNs = 1000.0;

    const auto a = runTraced(fast, "fast");
    const auto b = runTraced(slow, "slow");
    EXPECT_EQ(a.totals.rxPackets, b.totals.rxPackets);
    EXPECT_EQ(a.totals.processedPackets, b.totals.processedPackets);
    EXPECT_NE(a.trace, b.trace);
}

TEST(SplitLinks, CkptRoundTripMidBurstIsIdentical)
{
    // Checkpoint with DMA writes, fills and descriptor messages in
    // flight on the links; restore into a fresh build and run both
    // out.
    const auto cfg = splitConfig();
    constexpr sim::Tick ckptTick = 1 * quantum; // inside the burst
    constexpr sim::Tick endTick = 20 * quantum;

    harness::TestSystem cold(cfg);
    cold.start();
    cold.runFor(ckptTick);
    const auto blob = cold.checkpoint();
    ASSERT_FALSE(blob.empty());
    const harness::Totals atCkpt = cold.totals();
    EXPECT_LT(atCkpt.rxPackets, cfg.expectedBurstTotal())
        << "checkpoint was meant to land mid-burst";
    cold.runFor(endTick - ckptTick);

    harness::TestSystem warm(cfg);
    warm.start();
    warm.restore(blob);
    EXPECT_EQ(warm.simulation().now(), ckptTick);
    EXPECT_EQ(warm.totals(), atCkpt);
    warm.runFor(endTick - ckptTick);

    EXPECT_EQ(warm.totals(), cold.totals());
    EXPECT_EQ(statsJson(warm), statsJson(cold));
}

TEST(SplitLinksDeathTest, LegacyLayoutIsRejected)
{
    auto cfg = splitConfig();
    cfg.rxQueues = 0; // legacy per-NF-port shape
    EXPECT_EXIT(harness::TestSystem sys(cfg),
                ::testing::ExitedWithCode(1), "multi-queue");
}

TEST(SplitLinksDeathTest, HalfConfiguredLinksAreRejected)
{
    // split() triggers on either latency; validation demands both, so
    // no coupling is silently left synchronous.
    auto cfg = splitConfig();
    cfg.links.meshNs = 0.0;
    EXPECT_EXIT(harness::TestSystem sys(cfg),
                ::testing::ExitedWithCode(1), "link latencies");
}

TEST(SplitLinksDeathTest, ShardedWithoutLinksIsRejected)
{
    // Without link latencies the machine is one synchronously coupled
    // domain: asking for parallel workers is a configuration error,
    // not a silent serial run.
    auto cfg = splitConfig();
    cfg.links = harness::LinkLatencyConfig{};
    cfg.sharded = true;
    cfg.shardJobs = 2;
    EXPECT_EXIT(harness::TestSystem sys(cfg),
                ::testing::ExitedWithCode(1), "needs split links");
}

TEST(SplitLinksDeathTest, TransmittingNfIsRejected)
{
    auto cfg = splitConfig();
    cfg.nfKind = harness::NfKind::L2Fwd;
    EXPECT_EXIT(harness::TestSystem sys(cfg),
                ::testing::ExitedWithCode(1), "outbound DMA");
}

} // anonymous namespace
