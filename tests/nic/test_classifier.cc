/**
 * @file
 * IDIO classifier tests: app class, destination core, edge-triggered
 * burst detection (paper Sec. V-A). The classifier is handed the
 * destination core the NIC's Flow Director chose for the packet.
 */

#include <gtest/gtest.h>

#include "nic/classifier.hh"
#include "nic/flow_director.hh"
#include "sim/simulation.hh"

namespace
{

class ClassifierTest : public ::testing::Test
{
  protected:
    ClassifierTest() : fdir(4), cls(s, "cls", cfgFor(), 4)
    {
        cls.start();
    }

    static nic::ClassifierConfig
    cfgFor()
    {
        nic::ClassifierConfig c;
        c.rxBurstThresholdGbps = 10.0; // 1250 B per 1 us interval
        return c;
    }

    net::Packet
    packet(std::uint16_t srcPort, std::uint8_t dscp = 0,
           std::uint32_t bytes = 1514)
    {
        net::Packet p;
        p.flow.srcIp = 0x0a000001;
        p.flow.dstIp = 0x0a000002;
        p.flow.srcPort = srcPort;
        p.flow.dstPort = 5000;
        p.dscp = dscp;
        p.frameBytes = bytes;
        return p;
    }

    /** Classify @p p steered the way the NIC steers it. */
    nic::Classification
    classify(const net::Packet &p)
    {
        return cls.classify(p, fdir.lookup(p.flow));
    }

    sim::Simulation s;
    nic::FlowDirector fdir;
    nic::IdioClassifier cls;
};

TEST_F(ClassifierTest, AppClassFromDscp)
{
    EXPECT_EQ(classify(packet(1, 0)).appClass, 0);
    EXPECT_EQ(classify(packet(1, 31)).appClass, 0);
    EXPECT_EQ(classify(packet(1, 32)).appClass, 1);
    EXPECT_EQ(classify(packet(1, 63)).appClass, 1);
    EXPECT_EQ(cls.class1Packets.get(), 2u);
}

TEST_F(ClassifierTest, DestCoreFromFlowDirector)
{
    fdir.addRule(packet(77).flow, 2);
    EXPECT_EQ(classify(packet(77)).destCore, 2u);
}

TEST_F(ClassifierTest, BurstCountersChargeThePassedCore)
{
    // The counters follow the core passed in, whatever the packet's
    // flow would hash to.
    const auto p = packet(1, 0, 100);
    EXPECT_EQ(cls.classify(p, 3).destCore, 3u);
    EXPECT_EQ(cls.burstCounter(3), 100u);
    EXPECT_EQ(cls.classify(p, 1).destCore, 1u);
    EXPECT_EQ(cls.burstCounter(1), 100u);
    EXPECT_EQ(cls.burstCounter(3), 100u);
    EXPECT_EQ(cls.burstCounter(0) + cls.burstCounter(2), 0u);
}

TEST_F(ClassifierTest, OutOfRangeCoreIsFatal)
{
    EXPECT_DEATH(cls.classify(packet(1), 4), "out of range");
}

TEST_F(ClassifierTest, ThresholdBytesMatchTenGbps)
{
    // 10 Gbps over 1 us = 1250 bytes.
    EXPECT_EQ(cls.thresholdBytes(), 1250u);
}

TEST_F(ClassifierTest, BurstFlaggedOnCrossingAfterQuiet)
{
    fdir.addRule(packet(1).flow, 0);
    // First MTU packet crosses 1250 B immediately -> burst start.
    const auto c1 = classify(packet(1));
    EXPECT_TRUE(c1.burstActive);
    EXPECT_EQ(cls.burstsDetected.get(), 1u);

    // Further packets in the same interval do not re-signal.
    EXPECT_FALSE(classify(packet(1)).burstActive);
    EXPECT_FALSE(classify(packet(1)).burstActive);
}

TEST_F(ClassifierTest, SustainedTrafficSignalsOnlyOnce)
{
    fdir.addRule(packet(1).flow, 0);
    classify(packet(1)); // burst start
    // Cross the threshold in each of the next intervals too.
    for (int interval = 0; interval < 5; ++interval) {
        s.runFor(sim::oneUs);
        const auto c = classify(packet(1));
        EXPECT_FALSE(c.burstActive)
            << "sustained reception must not re-signal";
        classify(packet(1));
    }
    EXPECT_EQ(cls.burstsDetected.get(), 1u);
}

TEST_F(ClassifierTest, NewBurstAfterQuietPeriodSignalsAgain)
{
    fdir.addRule(packet(1).flow, 0);
    classify(packet(1));
    EXPECT_EQ(cls.burstsDetected.get(), 1u);

    // Two full quiet intervals.
    s.runFor(3 * sim::oneUs);
    const auto c = classify(packet(1));
    EXPECT_TRUE(c.burstActive);
    EXPECT_EQ(cls.burstsDetected.get(), 2u);
}

TEST_F(ClassifierTest, SmallPacketsAccumulateToThreshold)
{
    fdir.addRule(packet(1).flow, 0);
    // 64-byte packets: the 20th crosses 1250 bytes.
    for (int i = 0; i < 19; ++i)
        EXPECT_FALSE(classify(packet(1, 0, 64)).burstActive);
    EXPECT_TRUE(classify(packet(1, 0, 64)).burstActive);
}

TEST_F(ClassifierTest, PerCoreCountersIndependent)
{
    fdir.addRule(packet(1).flow, 0);
    fdir.addRule(packet(2).flow, 1);
    EXPECT_TRUE(classify(packet(1)).burstActive);
    // Core 1's counter is untouched by core 0's traffic.
    EXPECT_EQ(cls.burstCounter(1), 0u);
    EXPECT_TRUE(classify(packet(2)).burstActive);
    EXPECT_EQ(cls.burstsDetected.get(), 2u);
}

TEST_F(ClassifierTest, CountersResetEveryInterval)
{
    fdir.addRule(packet(1).flow, 0);
    classify(packet(1));
    EXPECT_GT(cls.burstCounter(0), 0u);
    s.runFor(2 * sim::oneUs);
    EXPECT_EQ(cls.burstCounter(0), 0u);
}

TEST_F(ClassifierTest, TlpForBuildsMetadata)
{
    fdir.addRule(packet(9).flow, 3);
    const auto c = classify(packet(9, 40));
    const auto header = cls.tlpFor(c, true);
    const auto payload = cls.tlpFor(c, false);
    EXPECT_TRUE(header.isHeader);
    EXPECT_FALSE(payload.isHeader);
    EXPECT_EQ(header.appClass, 1);
    EXPECT_EQ(header.destCore, 3u);
}

} // anonymous namespace
