/**
 * @file
 * Flow Director tests: EP rules, ATR learning, RSS fallback.
 */

#include <gtest/gtest.h>

#include "nic/flow_director.hh"

namespace
{

net::FiveTuple
flow(std::uint16_t srcPort, std::uint16_t dstPort = 5000)
{
    net::FiveTuple t;
    t.srcIp = 0x0a000001;
    t.dstIp = 0x0a000002;
    t.srcPort = srcPort;
    t.dstPort = dstPort;
    return t;
}

TEST(FlowDirector, EpRuleWins)
{
    nic::FlowDirector fd(8);
    fd.addRule(flow(1000), 5);
    EXPECT_EQ(fd.lookup(flow(1000)), 5u);
    EXPECT_EQ(fd.ruleCount(), 1u);
}

TEST(FlowDirector, RemoveRuleRestoresFallback)
{
    nic::FlowDirector fd(8);
    const auto fallback = fd.lookup(flow(1000));
    fd.addRule(flow(1000), 7);
    EXPECT_EQ(fd.lookup(flow(1000)), 7u);
    fd.removeRule(flow(1000));
    EXPECT_EQ(fd.lookup(flow(1000)), fallback);
}

TEST(FlowDirector, AtrLearning)
{
    nic::FlowDirector fd(8);
    fd.learn(flow(2000), 3);
    EXPECT_EQ(fd.lookup(flow(2000)), 3u);
    EXPECT_EQ(fd.learnedCount(), 1u);
}

TEST(FlowDirector, EpOverridesAtr)
{
    nic::FlowDirector fd(8);
    fd.learn(flow(2000), 3);
    fd.addRule(flow(2000), 6);
    EXPECT_EQ(fd.lookup(flow(2000)), 6u);
}

TEST(FlowDirector, RssFallbackInRange)
{
    nic::FlowDirector fd(4);
    for (std::uint16_t p = 1; p < 200; ++p)
        EXPECT_LT(fd.lookup(flow(p)), 4u);
}

TEST(FlowDirector, RssFallbackSpreadsFlows)
{
    nic::FlowDirector fd(4);
    std::vector<int> hits(4, 0);
    for (std::uint16_t p = 1; p <= 400; ++p)
        ++hits[fd.lookup(flow(p, 6000 + p))];
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(hits[c], 40) << "core " << c;
}

TEST(FlowDirector, LearnIsIdempotentPerIndex)
{
    nic::FlowDirector fd(8);
    fd.learn(flow(2000), 3);
    fd.learn(flow(2000), 4); // re-learn updates
    EXPECT_EQ(fd.lookup(flow(2000)), 4u);
    EXPECT_EQ(fd.learnedCount(), 1u);
}

TEST(FlowDirectorRss, DefaultRetaIsRoundRobinFill)
{
    nic::FlowDirector fd(8, 8192, /*rssTableEntries=*/128,
                         /*rssQueues=*/4);
    const auto &reta = fd.indirection();
    ASSERT_EQ(reta.size(), 128u);
    for (std::size_t i = 0; i < reta.size(); ++i)
        EXPECT_EQ(reta[i], i % 4) << "entry " << i;
}

TEST(FlowDirectorRss, RetaQueueAlwaysInRange)
{
    nic::FlowDirector fd(8, 8192, 128, 4);
    for (std::uint16_t p = 1; p <= 1000; ++p)
        EXPECT_LT(fd.rssQueue(flow(p, 6000 + p)), 4u);
}

TEST(FlowDirectorRss, SetIndirectionOverridesSteering)
{
    nic::FlowDirector fd(8, 8192, 128, 4);
    // Steer every hash bucket to queue 2: all flows land there.
    fd.setIndirection(std::vector<std::uint32_t>(128, 2));
    for (std::uint16_t p = 1; p <= 200; ++p)
        EXPECT_EQ(fd.rssQueue(flow(p, 6000 + p)), 2u);
}

TEST(FlowDirectorRss, LegacyModeMatchesDirectModulus)
{
    // rssTableEntries == 0 keeps the historical hash % numCores path
    // byte-for-byte; single-queue configs depend on this.
    nic::FlowDirector legacy(4);
    for (std::uint16_t p = 1; p <= 200; ++p) {
        const auto f = flow(p, 6000 + p);
        EXPECT_EQ(legacy.rssQueue(f),
                  net::toeplitzHash(f) % 4u);
        EXPECT_TRUE(legacy.indirection().empty());
    }
}

TEST(FlowDirectorRss, LookupFallsBackToReta)
{
    // With no EP rule and no ATR entry, lookup() routes through the
    // RETA, so a forced single-queue table steers everything.
    nic::FlowDirector fd(8, 8192, 64, 4);
    fd.setIndirection(std::vector<std::uint32_t>(64, 3));
    EXPECT_EQ(fd.lookup(flow(4242)), 3u);
    fd.addRule(flow(4242), 1); // EP still wins over RSS
    EXPECT_EQ(fd.lookup(flow(4242)), 1u);
}

/** Synthetic flow @p i: distinct addresses and ports per index. */
net::FiveTuple
syntheticFlow(std::uint32_t i)
{
    net::FiveTuple t;
    t.srcIp = 0x0a000000u + i * 2654435761u;
    t.dstIp = 0xc0a80000u ^ (i << 7);
    t.srcPort = static_cast<std::uint16_t>(1024 + i * 7);
    t.dstPort = static_cast<std::uint16_t>(80 + (i >> 5));
    return t;
}

TEST(FlowDirectorRss, LookupIsRssQueueWithoutRulesOrEntries)
{
    // With no EP rule and no learned ATR entry, the steering decision
    // is exactly the RSS queue, in both RSS variants.
    nic::FlowDirector legacy(12);
    nic::FlowDirector reta(32, 8192, 128, 32);
    std::vector<std::uint32_t> table(128);
    for (std::uint32_t i = 0; i < table.size(); ++i)
        table[i] = (i * 11) % 32;
    reta.setIndirection(table);
    for (std::uint32_t i = 0; i < 4096; ++i) {
        const auto f = syntheticFlow(i);
        ASSERT_EQ(legacy.lookup(f), legacy.rssQueue(f)) << "flow " << i;
        ASSERT_EQ(reta.lookup(f), reta.rssQueue(f)) << "flow " << i;
    }
}

TEST(FlowDirectorRss, PrecedenceIsEpThenAtrThenRss)
{
    for (const std::uint32_t retaEntries : {0u, 64u}) {
        nic::FlowDirector fd(8, 8192, retaEntries, 4);
        const auto f = flow(4242);
        const auto rss = fd.rssQueue(f);
        EXPECT_EQ(fd.lookup(f), rss);

        const sim::CoreId learned = (rss + 1) % 8;
        fd.learn(f, learned);
        EXPECT_EQ(fd.lookup(f), learned) << "ATR beats RSS";

        const sim::CoreId ep = (rss + 2) % 8;
        fd.addRule(f, ep);
        EXPECT_EQ(fd.lookup(f), ep) << "EP beats ATR and RSS";
        EXPECT_EQ(fd.rssQueue(f), rss) << "RSS ignores EP/ATR state";
    }
}

TEST(FlowDirectorRssDeath, BadRetaUseIsFatal)
{
    EXPECT_EXIT(nic::FlowDirector(4, 8192, /*rssTableEntries=*/100),
                ::testing::ExitedWithCode(1), "power of two");

    nic::FlowDirector legacy(4);
    EXPECT_EXIT(legacy.setIndirection({0, 1, 2, 3}),
                ::testing::ExitedWithCode(1), "");

    nic::FlowDirector reta(4, 8192, 64, 4);
    EXPECT_EXIT(reta.setIndirection({0, 1}),
                ::testing::ExitedWithCode(1), "");
}

TEST(FlowDirectorDeath, BadTableSizeIsFatal)
{
    EXPECT_EXIT(nic::FlowDirector(4, 1000),
                ::testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT(nic::FlowDirector(0), ::testing::ExitedWithCode(1),
                "at least one");
}

} // anonymous namespace
