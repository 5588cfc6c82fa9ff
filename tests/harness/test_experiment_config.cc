/**
 * @file
 * ExperimentConfig / HierarchyConfig helper tests.
 */

#include <gtest/gtest.h>

#include "harness/experiment_config.hh"
#include "sim/checker/invariant_checker.hh"
#include "sim/event_queue.hh"
#include "trace/tracer.hh"

namespace
{

TEST(ExperimentConfig, TableOneDefaults)
{
    const harness::ExperimentConfig cfg;
    EXPECT_EQ(cfg.hier.l1.sizeBytes, 64u * 1024);
    EXPECT_EQ(cfg.hier.l1.assoc, 2u);
    EXPECT_EQ(cfg.hier.mlc.sizeBytes, 1024u * 1024);
    EXPECT_EQ(cfg.hier.mlc.assoc, 8u);
    EXPECT_EQ(cfg.hier.llcPerCore.sizeBytes, 1536u * 1024);
    EXPECT_EQ(cfg.hier.llcPerCore.assoc, 12u);
    EXPECT_EQ(cfg.hier.ddioWays, 2u);
    EXPECT_DOUBLE_EQ(cfg.hier.cpuFreqGHz, 3.0);
    EXPECT_EQ(cfg.nic.ringSize, 1024u);
    EXPECT_EQ(cfg.frameBytes, 1514u);
    EXPECT_EQ(cfg.burstPeriod, 10 * sim::oneMs);
}

TEST(ExperimentConfig, EffectiveBurstPackets)
{
    harness::ExperimentConfig cfg;
    EXPECT_EQ(cfg.effectiveBurstPackets(), cfg.nic.ringSize)
        << "0 means 'ring size', the paper's burst-length rule";
    cfg.burstPackets = 77;
    EXPECT_EQ(cfg.effectiveBurstPackets(), 77u);
}

TEST(ExperimentConfig, NfKindNames)
{
    EXPECT_STREQ(harness::nfKindName(harness::NfKind::TouchDrop),
                 "TouchDrop");
    EXPECT_STREQ(harness::nfKindName(harness::NfKind::CopyTouchDrop),
                 "CopyTouchDrop");
    EXPECT_STREQ(harness::nfKindName(harness::NfKind::L2Fwd), "L2Fwd");
    EXPECT_STREQ(
        harness::nfKindName(harness::NfKind::L2FwdDropPayload),
        "L2FwdDropPayload");
}

TEST(ExperimentConfig, SummaryCoversTrafficKinds)
{
    harness::ExperimentConfig cfg;
    cfg.traffic = harness::TrafficKind::Steady;
    EXPECT_NE(cfg.summary().find("steady"), std::string::npos);
    cfg.traffic = harness::TrafficKind::Poisson;
    EXPECT_NE(cfg.summary().find("poisson"), std::string::npos);
    cfg.traffic = harness::TrafficKind::None;
    EXPECT_NE(cfg.summary().find("external"), std::string::npos);
}

TEST(ExperimentConfig, SummaryEchoesLinksAndExecutorJobs)
{
    harness::ExperimentConfig cfg;
    EXPECT_EQ(cfg.summary().find("links"), std::string::npos)
        << "synchronous runs have no links to report";
    cfg.links.pcieNs = 500.0;
    cfg.links.meshNs = 250.0;
    EXPECT_NE(cfg.summary().find("links pcie=500ns mesh=250ns, "
                                 "executor j1"),
              std::string::npos)
        << cfg.summary();
    cfg.sharded = true;
    cfg.shardJobs = 4;
    EXPECT_NE(cfg.summary().find("executor j4"), std::string::npos)
        << cfg.summary();
}

TEST(ExperimentConfig, RunEchoNamesBackendBuildFlagsAndSeed)
{
    harness::ExperimentConfig cfg;
    cfg.seed = 9001;
    const std::string echo = cfg.runEcho();
    const std::string backend = sim::EventQueue::backendName(
        sim::EventQueue::defaultBackend());
    EXPECT_NE(echo.find("scheduler " + backend), std::string::npos)
        << echo;
    EXPECT_NE(echo.find(IDIO_TRACE ? "IDIO_TRACE=ON" : "IDIO_TRACE=OFF"),
              std::string::npos)
        << echo;
    EXPECT_NE(echo.find(sim::InvariantChecker::compiledIn
                            ? "IDIO_CHECK_INVARIANTS=ON"
                            : "IDIO_CHECK_INVARIANTS=OFF"),
              std::string::npos)
        << echo;
    EXPECT_NE(echo.find("seed 9001"), std::string::npos) << echo;
}

TEST(ExperimentConfig, CoreCountMatchesBuiltSystem)
{
    harness::ExperimentConfig cfg;
    cfg.numNfs = 4;
    EXPECT_EQ(cfg.coreCount(), 4u);
    cfg.withAntagonist = true;
    EXPECT_EQ(cfg.coreCount(), 5u) << "the antagonist has its own core";
    cfg.withAntagonist = false;
    harness::TenantSpec rpc;
    rpc.name = "rpc";
    rpc.cores = 2;
    harness::TenantSpec antag;
    antag.name = "antag";
    antag.cores = 1;
    antag.antagonist = true;
    cfg.tenants = {rpc, antag};
    EXPECT_EQ(cfg.coreCount(), 3u) << "tenant mode counts every tenant";
}

TEST(HierarchyConfig, CycleConversions)
{
    cache::HierarchyConfig cfg;
    EXPECT_EQ(cfg.cyclePeriod(), 333u); // 3 GHz
    EXPECT_EQ(cfg.cyclesToTicks(12), 12u * 333);
}

TEST(HierarchyConfig, MlcSizeOverride)
{
    cache::HierarchyConfig cfg;
    cfg.numCores = 3;
    EXPECT_EQ(cfg.mlcSize(0), 1024u * 1024);
    cfg.mlcSizeOverride = {0, 0, 256 * 1024};
    EXPECT_EQ(cfg.mlcSize(0), 1024u * 1024) << "0 means no override";
    EXPECT_EQ(cfg.mlcSize(2), 256u * 1024);
}

TEST(HierarchyConfig, CoreLlcMaskDefaultsToAllWays)
{
    cache::HierarchyConfig cfg;
    EXPECT_EQ(cfg.coreLlcMask(0), ~cache::WayMask(0));
    cfg.llcAllocMask = {0b100};
    EXPECT_EQ(cfg.coreLlcMask(0), 0b100u);
    EXPECT_EQ(cfg.coreLlcMask(1), ~cache::WayMask(0))
        << "unlisted cores are unrestricted";
}

TEST(HierarchyConfig, TotalLlcScalesWithCores)
{
    cache::HierarchyConfig cfg;
    cfg.numCores = 4;
    EXPECT_EQ(cfg.llcSizeBytes(), 4u * 1536 * 1024);
}

} // anonymous namespace
